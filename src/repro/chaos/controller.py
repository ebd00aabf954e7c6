"""Per-attempt chaos instrumentation: wiring a plan into a live window.

A :class:`ChaosController` is created by the
:class:`~repro.runtime.supervisor.WindowSupervisor` for every supervised
window attempt.  It instruments a freshly built
:class:`~repro.net.network.SimulatedNetwork`:

* the network's transport is wrapped in a
  :class:`~repro.chaos.transport.FaultyTransport` keyed to this window and
  attempt (frame faults), and
* when the plan schedules :class:`~repro.chaos.plan.PoolDrain` /
  :class:`~repro.chaos.plan.GcTamper` hooks for the window, a message hook
  counts delivered protocol messages and fires them mid-window — draining
  the accounted randomizer/comparison pools (subsequent takes fall back and
  are counted, the resource-exhaustion signature) or flipping bits in the
  next pooled :class:`~repro.crypto.gc_pool.PreparedComparison` (whose
  evaluation then fails closed).

The controller also owns the attempt's fault ledger: everything injected —
frame faults, drains, tampers — lands in :attr:`injected`, and the
supervisor turns each entry into exactly one classified incident.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..crypto.garbled import LABEL_BYTES
from ..net.message import Message
from ..net.network import SimulatedNetwork
from .plan import FaultPlan, GcTamper, PoolDrain
from .transport import FaultyTransport, InjectedFault

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from ..core.protocols.context import KeyRing
    from ..crypto.gc_pool import PreparedComparison

__all__ = ["ChaosController", "tamper_prepared_comparison"]


def _flip_bit(data: bytes, bit: int = 0) -> bytes:
    return bytes([data[0] ^ (1 << bit)]) + data[1:]


def tamper_prepared_comparison(instance: "PreparedComparison", target: str) -> str:
    """Corrupt one prepared comparison in place; returns a detail string.

    Mirrors the adversarial cases of ``tests/crypto/test_gc_properties.py``:
    ``"row"`` flips a bit in every garbled-table row, ``"label"`` flips the
    output-decoding label digests, ``"pad"`` flips the precomputed OT pads.
    All three corrupt material the evaluation authenticates, so a tampered
    instance can abort but never silently mis-evaluate.
    """
    garbled = instance._garbler.garbled
    if target == "row":
        tables = bytearray(garbled.tables)
        for start in range(0, len(tables), LABEL_BYTES):
            tables[start] ^= 1
        garbled.tables = bytes(tables)
        return "flipped a bit in every garbled row"
    if target == "label":
        garbled.output_decoding = {
            wire: (_flip_bit(zero), _flip_bit(one))
            for wire, (zero, one) in garbled.output_decoding.items()
        }
        return "flipped the output label digests"
    if target == "pad":
        batch = instance._ot_batch
        batch.sender_pad_pairs = tuple(
            (_flip_bit(p0), _flip_bit(p1)) for p0, p1 in batch.sender_pad_pairs
        )
        return "flipped the precomputed OT pads"
    raise ValueError(f"unknown tamper target {target!r}")


class ChaosController:
    """Injects one plan's faults into one window attempt.

    Args:
        plan: the fault plan.
        window: the window being attempted.
        attempt: 0-based attempt number (plans go inactive past
            ``persist_attempts``, so retries run clean by default).
        keyring: the engine's key ring — the drain/tamper hooks reach its
            pools.
        comparison_bits: circuit width of the engine's comparison pool
            (``ProtocolConfig.comparison_bits``), used by the tamper hook.
    """

    def __init__(
        self,
        plan: FaultPlan,
        window: int,
        attempt: int,
        keyring: "KeyRing",
        comparison_bits: int = 64,
    ) -> None:
        self.plan = plan
        self.window = window
        self.attempt = attempt
        self.keyring = keyring
        self.comparison_bits = comparison_bits
        self.transport: FaultyTransport | None = None
        self._hook_faults: List[InjectedFault] = []
        self._messages_seen = 0
        self._pending_drains = list(plan.drains_for(window, attempt))
        self._pending_tampers = list(plan.tampers_for(window, attempt))

    # -- instrumentation ---------------------------------------------------------

    def instrument(self, network: SimulatedNetwork) -> SimulatedNetwork:
        """Wrap the network's transport and install the mid-window hooks.

        Must run before any party registers (the supervisor builds the
        network and instruments it immediately, before the protocol
        context exists).
        """
        self.transport = FaultyTransport(
            network.transport, self.plan, window=self.window, attempt=self.attempt
        )
        network.transport = self.transport
        if self._pending_drains or self._pending_tampers:
            network.add_message_hook(self._on_message)
        return network

    @property
    def injected(self) -> List[InjectedFault]:
        """The attempt's full fault ledger (frame faults + fired hooks)."""
        frame_faults = self.transport.injected if self.transport is not None else []
        return list(frame_faults) + list(self._hook_faults)

    # -- mid-window hooks --------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        # Runs inside SimulatedNetwork.deliver, before the transport —
        # i.e. genuinely mid-window, after `after_messages` protocol
        # messages of this attempt.
        self._messages_seen += 1
        for drain in [d for d in self._pending_drains if d.after_messages == self._messages_seen]:
            self._pending_drains.remove(drain)
            self._fire_drain(drain)
        for tamper in [t for t in self._pending_tampers if t.after_messages == self._messages_seen]:
            self._pending_tampers.remove(tamper)
            self._fire_tamper(tamper)

    def _fire_drain(self, drain: PoolDrain) -> None:
        discarded = 0
        if drain.pool in ("randomizer", "both"):
            for pool in self.keyring.randomizer_pools:
                discarded += pool.force_drain()
        if drain.pool in ("comparison", "both"):
            for pool in self.keyring.comparison_pools:
                discarded += pool.force_drain()
        self._hook_faults.append(
            InjectedFault(
                kind="pool_drain",
                window=self.window,
                detail=(
                    f"force-drained {drain.pool} pools after "
                    f"{drain.after_messages} messages ({discarded} entries discarded)"
                ),
            )
        )

    def _fire_tamper(self, tamper: GcTamper) -> None:
        pool = self.keyring.comparison_pool(self.comparison_bits)
        instance = pool.peek()
        if instance is None:
            detail = f"tamper target {tamper.target!r} scheduled but pool empty"
        else:
            detail = tamper_prepared_comparison(instance, tamper.target)
        self._hook_faults.append(
            InjectedFault(
                kind="gc_tamper",
                window=self.window,
                detail=f"{detail} (after {tamper.after_messages} messages)",
            )
        )
