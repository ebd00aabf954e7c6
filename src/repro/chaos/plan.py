"""Seeded, deterministic fault plans for chaos runs.

A :class:`FaultPlan` is a *pure description* of the faults a chaos run
injects: frame-level transport faults (drop / reorder / duplicate /
byte-corruption) chosen by rate, plus scheduled mid-window hooks —
force-draining the Paillier randomizer and garbled-comparison pools
(:class:`PoolDrain`), tampering prepared GC material (:class:`GcTamper`)
and SIGKILLing shard workers (:attr:`FaultPlan.kill_shards`).

Determinism is the whole point: every decision is a function of
``(seed, window, frame ordinal)`` through SHA-256, never of process state,
wall clock or module-level RNGs — the same invariant that keeps sharded
runs bit-identical (see :mod:`repro.core.protocols.context`).  Two runs of
the same plan over the same windows inject exactly the same faults, so the
recovery certificate ("a chaos run that retries to success is bit-identical
to the fault-free run") is reproducible.

By default faults are injected only on a window's *first* attempt
(``persist_attempts=1``): the :class:`~repro.runtime.supervisor.WindowSupervisor`
retries a failed window and the retry runs clean, which is what guarantees
convergence within ``max_attempts``.  Raising ``persist_attempts`` models a
hard fault that survives retries and exercises the supervisor's fail-closed
abort path.

The plan is a frozen dataclass of immutable fields, so it ships cleanly
into sharded worker processes as part of ``ProtocolConfig`` and is safe to
share between threads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "FRAME_FAULT_KINDS",
    "FAULT_KINDS",
    "PoolDrain",
    "GcTamper",
    "FaultPlan",
]

#: Frame-level fault kinds a :class:`FaultPlan` chooses by rate, in the
#: fixed precedence order the decision function applies them.
FRAME_FAULT_KINDS = ("drop", "reorder", "duplicate", "corrupt")

#: Every fault kind a chaos run can inject (frame faults plus the
#: scheduled hooks).
FAULT_KINDS = FRAME_FAULT_KINDS + ("pool_drain", "gc_tamper", "worker_kill")

#: Pools a :class:`PoolDrain` can target.
_DRAIN_POOLS = ("randomizer", "comparison", "both")

#: Prepared-GC material a :class:`GcTamper` can corrupt.
_TAMPER_TARGETS = ("row", "label", "pad")


@dataclass(frozen=True)
class PoolDrain:
    """Force-drain precomputed pools mid-window (resource exhaustion).

    After ``after_messages`` protocol messages of window ``window`` have
    been delivered, the chaos controller discards every entry currently in
    the targeted accounted pools (the reservoirs are untouched) —
    subsequent takes fall back and are counted, exactly like a genuinely
    under-provisioned warm-up.

    Attributes:
        window: the window the drain fires in.
        pool: ``"randomizer"``, ``"comparison"`` or ``"both"``.
        after_messages: delivered-message count that triggers the drain
            (fires once per attempt).
    """

    window: int
    pool: str = "both"
    after_messages: int = 2

    def __post_init__(self) -> None:
        if self.pool not in _DRAIN_POOLS:
            raise ValueError(
                f"unknown drain pool {self.pool!r}; expected one of {_DRAIN_POOLS}"
            )
        if self.after_messages < 1:
            raise ValueError("after_messages must be >= 1")


@dataclass(frozen=True)
class GcTamper:
    """Corrupt prepared garbled-comparison material mid-window.

    After ``after_messages`` delivered messages of window ``window``, the
    controller flips bits in the next pooled
    :class:`~repro.crypto.gc_pool.PreparedComparison`:

    * ``"row"`` — every garbled-table row (the classic point-and-permute
      evaluation decrypts one row per binary gate, so this always aborts;
      half-gates rows are folded in only on active paths),
    * ``"label"`` — the output-decoding label digests (both schemes abort
      at output decode),
    * ``"pad"`` — the precomputed OT pads masking the evaluator's input
      labels (both schemes abort).

    Any evaluation of tampered material fails closed — the supervisor
    *always* aborts the run with an ``integrity_violation`` incident, never
    retries: retrying would mask an active adversary on the channel.
    """

    window: int
    target: str = "row"
    after_messages: int = 1

    def __post_init__(self) -> None:
        if self.target not in _TAMPER_TARGETS:
            raise ValueError(
                f"unknown tamper target {self.target!r}; "
                f"expected one of {_TAMPER_TARGETS}"
            )
        if self.after_messages < 1:
            raise ValueError("after_messages must be >= 1")


def _unit_float(seed: int, *labels: object) -> float:
    """A deterministic uniform float in ``[0, 1)`` from a label path.

    SHA-256 rather than ``hash()`` for the same reason key material uses
    it (see ``context._derived_rng``): decisions must be identical across
    the worker processes of a sharded run.
    """
    material = "\x1f".join(str(label) for label in (seed, *labels)).encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded description of the faults a chaos run injects.

    Attributes:
        seed: chaos seed — all frame decisions derive from it.
        drop_rate / reorder_rate / duplicate_rate / corrupt_rate:
            per-frame probabilities of each frame fault, applied in that
            precedence order by :meth:`frame_fault`.
        max_faults_per_window: cap on frame faults injected per window per
            attempt (default 1, keeping the fault ↔ incident mapping
            exact even at high rates).
        persist_attempts: attempts (per window) the plan stays active for.
            The default 1 injects only on the first attempt, so a
            supervisor retry runs clean and recovery converges.
        pool_drains: scheduled :class:`PoolDrain` hooks.
        tampers: scheduled :class:`GcTamper` hooks (fail-closed aborts).
        kill_shards: shard indices whose worker SIGKILLs itself
            mid-shard (once; the respawned worker runs clean).  Honoured
            on every multi-shard run; a single-shard plan runs inline
            and has no worker to kill.
        max_attempts: supervisor retry budget per window (first attempt
            included).
        backoff_base: base of the supervisor's exponential backoff in
            *wall-clock* seconds (``backoff_base * backoff_factor**n``
            before retry ``n``).  Never charged to the simulated clocks —
            recovery must leave the accounting bit-identical.
        backoff_factor: exponential backoff multiplier.
    """

    seed: int = 0
    drop_rate: float = 0.0
    reorder_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    max_faults_per_window: int = 1
    persist_attempts: int = 1
    pool_drains: Tuple[PoolDrain, ...] = ()
    tampers: Tuple[GcTamper, ...] = ()
    kill_shards: Tuple[int, ...] = ()
    max_attempts: int = 3
    backoff_base: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "reorder_rate", "duplicate_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        total = self.drop_rate + self.reorder_rate + self.duplicate_rate + self.corrupt_rate
        if total > 1.0:
            raise ValueError(f"frame fault rates sum to {total}, must be <= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.persist_attempts < 0:
            raise ValueError("persist_attempts must be >= 0")
        if self.max_faults_per_window < 0:
            raise ValueError("max_faults_per_window must be >= 0")

    # -- introspection -----------------------------------------------------------

    @property
    def is_idle(self) -> bool:
        """True when the plan injects nothing (a zero-fault plan)."""
        return (
            self.drop_rate == 0.0
            and self.reorder_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.corrupt_rate == 0.0
            and not self.pool_drains
            and not self.tampers
            and not self.kill_shards
        )

    # -- decisions ---------------------------------------------------------------

    def active_for(self, attempt: int) -> bool:
        """Whether faults are injected on attempt ``attempt`` (0-based)."""
        return attempt < self.persist_attempts

    def frame_fault(
        self, window: int, attempt: int, ordinal: int, injected: int = 0
    ) -> Optional[str]:
        """The frame fault (if any) for frame ``ordinal`` of ``window``.

        A pure function of ``(seed, window, ordinal)`` — ``attempt`` only
        gates activity (see :meth:`active_for`) and ``injected`` enforces
        ``max_faults_per_window``; neither perturbs the draw, so a frame's
        fate never depends on what happened to earlier frames.
        """
        if not self.active_for(attempt):
            return None
        if injected >= self.max_faults_per_window:
            return None
        draw = _unit_float(self.seed, "frame", window, ordinal)
        cumulative = 0.0
        for kind, rate in (
            ("drop", self.drop_rate),
            ("reorder", self.reorder_rate),
            ("duplicate", self.duplicate_rate),
            ("corrupt", self.corrupt_rate),
        ):
            cumulative += rate
            if rate > 0.0 and draw < cumulative:
                return kind
        return None

    def corrupt_position(self, window: int, ordinal: int, frame_len: int) -> int:
        """Deterministic byte offset the corruption flips in a frame."""
        if frame_len <= 0:
            return 0
        draw = _unit_float(self.seed, "corrupt-at", window, ordinal)
        return int(draw * frame_len) % frame_len

    def drains_for(self, window: int, attempt: int) -> Tuple[PoolDrain, ...]:
        """The pool drains scheduled for ``window`` on this attempt."""
        if not self.active_for(attempt):
            return ()
        return tuple(d for d in self.pool_drains if d.window == window)

    def tampers_for(self, window: int, attempt: int) -> Tuple[GcTamper, ...]:
        """The GC tampers scheduled for ``window`` on this attempt."""
        if not self.active_for(attempt):
            return ()
        return tuple(t for t in self.tampers if t.window == window)
