"""Pure cost predictor behind the deployment planner.

Every number here comes from the calibrated :class:`~repro.net.costmodel.
CostModel` that charges the real protocol runs — the planner never invents
its own constants for crypto or link costs.  What this module adds is the
*composition*: given a :class:`~repro.planning.fleet.FleetSpec` and one
candidate configuration, predict the simulated day runtime the runtime
subsystem would report, as a pure function with no side effects.

The per-window charge structure mirrors the engine's accounting:

* two layered encrypted aggregations (market evaluation and pricing) over
  ``agent_count`` contributors, each hop carrying one Paillier ciphertext
  (``2 * key_size / 8`` bytes);
* one pooled secure comparison online (eval + extended OTs), its garbling
  and base-OT session on the offline clock
  (:meth:`CostModel.comparison_offline_cost` /
  :meth:`CostModel.comparison_session_cost`);
* four parallel communication rounds (broadcast, ratio submission,
  energy routing, payments);
* the randomizer-pool obfuscator warm-up on the offline clock;
* the fixed session setup — every window under ``session_scope="window"``,
  once at the day's anchor window under ``"day"``.

Two planner-level refinements make the search axes *real tradeoffs*
rather than foregone conclusions:

* **fan-in bandwidth** — a merge layer of a ``tree:k`` schedule hides
  *latency* across its concurrent hops (the engine's
  ``layered_aggregation_cost`` model) but the ``k`` child ciphertexts still
  serialize on the parent's ingress link, so a layer is charged
  ``latency + k * bytes / bandwidth``.
  Higher arity buys fewer layers at the price of wider layers; the optimal
  arity depends on the link's latency/bandwidth ratio.
* **shard dispatch** — fanning a day out to ``w`` workers ships each
  extra worker its shard's trace slice up front, so workers cost
  ``(w - 1)`` dispatch messages before they pay off.  On big fleets this
  is noise; on slow links it bounds the useful worker count.

Both clocks are then folded into a day exactly the way the runtime does:
:func:`~repro.net.costmodel.pipelined_day_cost` /
:func:`~repro.net.costmodel.unpipelined_day_cost` over the *anchor shard*
(shard 0 of a stride plan holds the day's first window — the one that
carries the day-scoped session charges — and the largest window count, so
it is the critical-path shard).

Everything is monotone non-decreasing in each phase scalar, in the anchor
shard's window count, and in link latency / inverse bandwidth — the
property the metamorphic suite (``tests/net/test_costmodel.py``) pins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from ..core.protocols import ProtocolConfig
from ..crypto.circuits import build_greater_than_circuit
from ..crypto.garbled import garble_circuit
from ..net.costmodel import (
    CostModel,
    CryptoCostModel,
    NetworkCostModel,
    pipelined_day_cost,
    unpipelined_day_cost,
)
from .fleet import FleetSpec

__all__ = [
    "ComparatorProfile",
    "WindowPhases",
    "comparator_profile",
    "build_cost_model",
    "window_phases",
    "dispatch_seconds",
    "shard_day_seconds",
    "anchor_window_count",
    "candidate_day_seconds",
]

#: Parallel communication rounds per window beyond the two aggregations
#: (price broadcast, ratio submission, energy routing, payments).
PARALLEL_ROUNDS_PER_WINDOW = 4

#: Pooled encryptions a window consumes (each agent encrypts its surplus
#: and deficit contribution) — also the obfuscator warm-up count.
ENCRYPTIONS_PER_AGENT = 2

#: Serialized trace bytes per agent-window a shard worker must receive
#: before it can start (window index + readings + battery state).
DISPATCH_BYTES_PER_AGENT_WINDOW = 48


@dataclass(frozen=True)
class ComparatorProfile:
    """Size facts of the garbled comparison circuit."""

    and_gate_count: int
    table_bytes: int


@lru_cache(maxsize=32)
def comparator_profile(bit_width: int) -> ComparatorProfile:
    """Garble the ``bit_width`` comparator once (seeded) and read its sizes.

    The AND-gate count drives the gate accounting (the engine charges
    comparisons per AND gate); the serialized table bytes are what cross
    the wire offline.
    """
    circuit = build_greater_than_circuit(bit_width)
    # staticcheck: ignore[csprng-default] -- deterministic sizing probe: the
    # garbled tables are measured for their byte size and discarded, never
    # sent or evaluated, and a seeded build keeps the planner's cost
    # predictions identical across processes.
    garbled = garble_circuit(circuit, rng=random.Random(bit_width))
    return ComparatorProfile(
        and_gate_count=circuit.and_gate_count,
        table_bytes=garbled.garbled.serialized_size(),
    )


def build_cost_model(spec: FleetSpec, key_size: int) -> CostModel:
    """The calibrated cost model for ``spec``'s links at ``key_size``."""
    return CostModel(
        crypto=CryptoCostModel(key_size=key_size),
        network=NetworkCostModel(
            per_message_latency_seconds=spec.link.latency_seconds,
            bandwidth_bytes_per_second=spec.link.bandwidth_bytes_per_second,
        ),
        pipelined_crypto=True,
    )


def _ciphertext_bytes(key_size: int) -> int:
    """A Paillier ciphertext lives mod n^2: twice the modulus size."""
    return 2 * key_size // 8


def _hop_seconds(model: CostModel, size_bytes: float, transport: str) -> float:
    """One message hop; socket framing costs an extra ack latency."""
    seconds = model.network.per_message_latency_seconds + (
        size_bytes / model.network.bandwidth_bytes_per_second
    )
    if transport == "socket":
        seconds += model.network.per_message_latency_seconds
    return seconds


def _merge_layer_count(contributors: int, arity: int) -> int:
    """Layers a k-ary merge of ``contributors`` values needs (ceil log_k)."""
    layers = 0
    remaining = contributors
    while remaining > 1:
        remaining = -(-remaining // arity)  # ceil division
        layers += 1
    return layers


def aggregation_online_seconds(
    model: CostModel, topology: str, contributors: int, cipher_bytes: int, transport: str
) -> float:
    """Critical-path seconds of one encrypted aggregation.

    Chain: ``contributors`` strictly sequential hops.  ``tree:k``:
    ``ceil(log_k n)`` merge layers — latency hidden across a layer's
    concurrent hops, the ``k`` child ciphertexts serialized on the
    parent's ingress link — plus one delivery hop to the requester.
    """
    if topology == "chain":
        return contributors * _hop_seconds(model, cipher_bytes, transport)
    arity = int(topology.split(":", 1)[1])
    layers = _merge_layer_count(contributors, arity)
    per_layer = _hop_seconds(model, arity * cipher_bytes, transport)
    delivery = _hop_seconds(model, cipher_bytes, transport)
    return layers * per_layer + delivery


@dataclass(frozen=True)
class WindowPhases:
    """Per-window clocks of one candidate, plus the day-scope anchor extras.

    ``offline_seconds`` / ``online_seconds`` are charged at *every*
    window; the anchor extras are charged once, at the day's first
    window, and are nonzero only under ``session_scope="day"`` (window
    scope folds the session charges into every window instead).
    """

    offline_seconds: float
    online_seconds: float
    anchor_offline_extra: float
    anchor_online_extra: float


@lru_cache(maxsize=4096)
def window_phases(
    spec: FleetSpec,
    key_size: int,
    topology: str,
    session_scope: str,
    transport: str,
) -> WindowPhases:
    """Predict one market window's offline/online clocks for a candidate.

    Pure and memoized (``FleetSpec`` is frozen/hashable): the phases do
    not depend on the worker count or pipelining, so the search scores
    each combination once for every workers × pipeline option.  The
    session charge uses the base-OT count the engine executes
    (:attr:`ProtocolConfig.ot_extension_kappa`'s default).
    """
    model = build_cost_model(spec, key_size)
    cipher = _ciphertext_bytes(key_size)
    profile = comparator_profile(spec.comparison_bits)
    encryptions = ENCRYPTIONS_PER_AGENT * spec.agent_count

    online = 2.0 * aggregation_online_seconds(
        model, topology, spec.agent_count, cipher, transport
    )
    online += model.comparison_cost(
        profile.and_gate_count, spec.comparison_bits, pooled=True
    )
    online += PARALLEL_ROUNDS_PER_WINDOW * _hop_seconds(model, cipher, transport)
    online += model.aggregation_cost(encryptions)
    online += model.encryption_cost(encryptions, pooled=True)

    offline = model.offline_precompute_cost(encryptions)
    offline += model.comparison_offline_cost(profile.and_gate_count)
    offline += _hop_seconds(model, profile.table_bytes, transport)

    setup = model.window_setup_cost()
    session = model.comparison_session_cost(ProtocolConfig.ot_extension_kappa)
    if session_scope == "window":
        return WindowPhases(offline + session, online + setup, 0.0, 0.0)
    return WindowPhases(offline, online, session, setup)


def dispatch_seconds(spec: FleetSpec, workers: int, transport: str, key_size: int) -> float:
    """Up-front cost of shipping shards to ``workers - 1`` extra workers."""
    if workers <= 1:
        return 0.0
    model = build_cost_model(spec, key_size)
    shard_windows = -(-spec.windows_per_day // workers)  # ceil: the largest shard
    payload = DISPATCH_BYTES_PER_AGENT_WINDOW * spec.agent_count * shard_windows
    return (workers - 1) * _hop_seconds(model, payload, transport)


def anchor_window_count(windows_per_day: int, workers: int) -> int:
    """Windows in shard 0 of a stride plan (it always takes the ceiling)."""
    effective = max(1, min(workers, windows_per_day))
    return -(-windows_per_day // effective)


def shard_day_seconds(
    phases: WindowPhases, window_count: int, pipeline: bool
) -> float:
    """Day clock of the anchor shard: fold ``window_count`` windows.

    Monotone non-decreasing in every field of ``phases`` and in
    ``window_count`` — both :func:`pipelined_day_cost` and
    :func:`unpipelined_day_cost` are sums of monotone terms.
    """
    per_window = [
        (
            phases.offline_seconds + (phases.anchor_offline_extra if i == 0 else 0.0),
            phases.online_seconds + (phases.anchor_online_extra if i == 0 else 0.0),
        )
        for i in range(window_count)
    ]
    if pipeline:
        return pipelined_day_cost(per_window)
    return unpipelined_day_cost(per_window)


def candidate_day_seconds(
    spec: FleetSpec,
    key_size: int,
    topology: str,
    session_scope: str,
    transport: str,
    workers: int,
    pipeline: bool,
) -> Tuple[float, Dict[str, float]]:
    """Predicted simulated day runtime of one candidate, with breakdown."""
    phases = window_phases(spec, key_size, topology, session_scope, transport)
    count = anchor_window_count(spec.windows_per_day, workers)
    shard = shard_day_seconds(phases, count, pipeline)
    dispatch = dispatch_seconds(spec, workers, transport, key_size)
    total = shard + dispatch
    breakdown = {
        "online_seconds_per_window": phases.online_seconds,
        "offline_seconds_per_window": phases.offline_seconds,
        "anchor_online_extra_seconds": phases.anchor_online_extra,
        "anchor_offline_extra_seconds": phases.anchor_offline_extra,
        "anchor_shard_windows": float(count),
        "anchor_shard_day_seconds": shard,
        "dispatch_seconds": dispatch,
        "day_seconds": total,
    }
    return total, breakdown
