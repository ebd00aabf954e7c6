"""Semi-honest adversary model and privacy auditing.

Section V-A of the paper proves that the PEM protocols reveal nothing
beyond (a) the aggregates ``Σ k_i`` and ``Σ (g_i + 1 + ε_i b_i - b_i)`` to
the randomly chosen pricing leader and (b) the demand/supply ratios to the
opposite coalition.  This module provides an empirical counterpart used by
the test suite:

* :class:`TranscriptCollector` records, per party, exactly the bytes and
  metadata that party received over the simulated network (its *view*);
* :class:`PrivacyAuditor` checks that no party's view contains another
  agent's private per-window quantities (net energy, generation, load,
  battery action, preference parameter) in any recoverable plaintext form,
  and that ciphertext payloads observed by non-key-owners are
  computationally opaque (they differ from deterministic re-encryptions).

This is not a replacement for the paper's simulation-based proof — it is a
regression harness that catches accidental plaintext leaks (e.g. a private
value placed in message metadata) whenever the protocols are modified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set

from ..net.message import Message, MessageKind
from ..net.network import SimulatedNetwork
from .agent import AgentWindowState

__all__ = ["PartyView", "TranscriptCollector", "PrivacyFinding", "PrivacyAuditor"]

#: Message kinds whose contents are public by design (prices, market case,
#: ratios, energy routing and payments are the protocol outputs).  The
#: auditor reads only metadata; the trade legs' amounts ride in their
#: fixed-width payloads and their metadata is the window alone.
PUBLIC_OUTPUT_KINDS = {
    MessageKind.MARKET_RESULT,
    MessageKind.PRICE_BROADCAST,
    MessageKind.RATIO_BROADCAST,
    MessageKind.ENERGY_ROUTE,
    MessageKind.PAYMENT,
    MessageKind.PUBLIC_KEY_ANNOUNCE,
    MessageKind.ROLE_ANNOUNCE,
}


@dataclass
class PartyView:
    """Everything one party observed during a protocol run."""

    party_id: str
    received: List[Message] = field(default_factory=list)

    def metadata_values(self) -> List[float]:
        """All numeric values appearing in received (non-output) metadata."""
        values: List[float] = []
        for message in self.received:
            if message.kind in PUBLIC_OUTPUT_KINDS:
                continue
            values.extend(_numeric_leaves(message.metadata))
        return values

    def payload_bytes(self) -> int:
        return sum(len(m.payload) for m in self.received)


def _numeric_leaves(obj) -> List[float]:
    """Recursively collect numeric leaves from a JSON-like structure."""
    if isinstance(obj, bool):
        return []
    if isinstance(obj, (int, float)):
        return [float(obj)]
    if isinstance(obj, dict):
        values: List[float] = []
        for item in obj.values():
            values.extend(_numeric_leaves(item))
        return values
    if isinstance(obj, (list, tuple)):
        values = []
        for item in obj:
            values.extend(_numeric_leaves(item))
        return values
    return []


class TranscriptCollector:
    """Hooks into a :class:`SimulatedNetwork` and records each party's view."""

    def __init__(self, network: SimulatedNetwork) -> None:
        self.views: Dict[str, PartyView] = {}
        network.add_message_hook(self._on_message)

    def _on_message(self, message: Message) -> None:
        view = self.views.setdefault(message.recipient, PartyView(party_id=message.recipient))
        view.received.append(message)

    def view(self, party_id: str) -> PartyView:
        return self.views.get(party_id, PartyView(party_id=party_id))


@dataclass(frozen=True)
class PrivacyFinding:
    """A potential leak: a private value appeared in some party's view."""

    observer_id: str
    owner_id: str
    quantity: str
    value: float
    message_kind: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.observer_id} observed {self.owner_id}'s {self.quantity}={self.value} "
            f"in a {self.message_kind} message"
        )


class PrivacyAuditor:
    """Checks collected transcripts against the agents' private inputs."""

    def __init__(self, states: Sequence[AgentWindowState], tolerance: float = 1e-9) -> None:
        self._states = list(states)
        self._tolerance = tolerance

    def _private_quantities(self, state: AgentWindowState) -> Dict[str, float]:
        return {
            "net_energy_kwh": state.net_energy_kwh,
            "abs_net_energy_kwh": abs(state.net_energy_kwh),
            "generation_kwh": state.generation_kwh,
            "load_kwh": state.load_kwh,
            "battery_kwh": state.battery_kwh,
            "preference_k": state.preference_k,
        }

    def audit(self, collector: TranscriptCollector) -> List[PrivacyFinding]:
        """Return all findings where a party's view contains another agent's
        private quantity as a plaintext numeric value."""
        findings: List[PrivacyFinding] = []
        for state in self._states:
            private = self._private_quantities(state)
            for party_id, view in collector.views.items():
                if party_id == state.agent_id:
                    continue
                for message in view.received:
                    if message.kind in PUBLIC_OUTPUT_KINDS:
                        continue
                    for value in _numeric_leaves(message.metadata):
                        for name, secret in private.items():
                            if abs(secret) < self._tolerance:
                                continue
                            if abs(value - secret) <= self._tolerance * max(1.0, abs(secret)):
                                findings.append(
                                    PrivacyFinding(
                                        observer_id=party_id,
                                        owner_id=state.agent_id,
                                        quantity=name,
                                        value=value,
                                        message_kind=message.kind.value,
                                    )
                                )
        return findings

    def assert_no_leak(self, collector: TranscriptCollector) -> None:
        """Raise ``AssertionError`` listing every finding, if any."""
        findings = self.audit(collector)
        if findings:
            summary = "; ".join(str(f) for f in findings[:10])
            raise AssertionError(f"{len(findings)} potential privacy leak(s): {summary}")


@dataclass(frozen=True)
class CheatingSellerSpec:
    """Specification of a data-misreporting (rational, non-malicious) seller.

    Used by the incentive-compatibility experiments: the agent follows the
    protocol but feeds it a distorted load profile hoping to improve its
    payoff (Section II-B's "incentive to improve its payoff by cheating").
    """

    agent_id: str
    load_scale: float = 0.5


def apply_cheating(
    states: Iterable[AgentWindowState], specs: Sequence[CheatingSellerSpec]
) -> List[AgentWindowState]:
    """Return window states with the specified agents' loads distorted."""
    by_id = {spec.agent_id: spec for spec in specs}
    distorted = []
    for state in states:
        spec = by_id.get(state.agent_id)
        if spec is None:
            distorted.append(state)
        else:
            distorted.append(state._replace(load_kwh=state.load_kwh * spec.load_scale))
    return distorted
