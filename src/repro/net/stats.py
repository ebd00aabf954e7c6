"""Traffic and cost accounting for the simulated PEM network.

Collects per-party and global statistics: messages sent/received, bytes
sent/received, and simulated computation/communication time.  These feed the
reproduction of Table I (average bandwidth per smart home) and Figure 5
(runtime scaling).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable

__all__ = ["PartyTraffic", "TrafficStats"]


@dataclass
class PartyTraffic:
    """Traffic counters for a single party."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def merge(self, other: "PartyTraffic") -> None:
        self.messages_sent += other.messages_sent
        self.messages_received += other.messages_received
        self.bytes_sent += other.bytes_sent
        self.bytes_received += other.bytes_received


@dataclass
class TrafficStats:
    """Aggregated traffic statistics for a network or a protocol run."""

    per_party: Dict[str, PartyTraffic] = field(default_factory=lambda: defaultdict(PartyTraffic))
    total_messages: int = 0
    total_bytes: int = 0
    #: bytes broken down by message kind (e.g. "market_aggregate", "payment").
    bytes_by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: simulated critical-path wall-clock seconds accumulated by the cost
    #: model (the *online* phase).
    simulated_seconds: float = 0.0
    #: simulated idle-time seconds spent on offline precomputation
    #: (randomizer-pool warm-up); deliberately kept off the critical path.
    offline_seconds: float = 0.0
    #: simulated idle-time seconds spent preparing garbled comparisons
    #: (circuit garbling, base OTs, OT-extension batches) — the
    #: garbled-circuit analogue of :attr:`offline_seconds`.
    gc_offline_seconds: float = 0.0
    #: how many encryptions found their randomizer pool drained and had to
    #: run the full online exponentiation instead of a pooled mulmod.  A
    #: nonzero count means the offline warm-up under-provisioned the pools
    #: (the online clock silently absorbed exponentiations that should have
    #: been pipelined), so traces surface it explicitly.
    pool_fallbacks: int = 0
    #: how many secure comparisons found the comparison pool drained and
    #: ran the classic Yao protocol (garbling + public-key OTs) on the
    #: online clock instead of evaluating a prepared instance.
    gc_fallbacks: int = 0
    #: aggregation messages sent, keyed by topology name ("chain",
    #: "tree:2", ...).  This is the *bandwidth-side* counter: every
    #: topology sends exactly one ciphertext per contributor, so equal hop
    #: counts across topologies certify that tree-ification moved nothing
    #: onto the wire.
    aggregation_hops: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: aggregation critical-path rounds (schedule layers + the delivery
    #: hop), keyed by topology name.  This is the *latency-side* counter —
    #: the quantity the latency-hiding cost model multiplies by one
    #: message time.  ``hops`` vs. ``rounds`` mirrors the offline/online
    #: split: total work vs. critical path.
    aggregation_rounds: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: protocol sessions whose establishment (the fixed per-window setup
    #: second, the base-OT session of the OT extension) was *charged* in
    #: this run.  Window-scoped runs pay per market window; day-scoped
    #: runs pay once at the anchor window (see :mod:`repro.net.session`).
    sessions_established: int = 0
    #: session leases served by an already-established (day-scoped)
    #: session — windows that skipped the fixed setup costs entirely.
    sessions_reused: int = 0
    #: offline seconds of this window *eligible to overlap* the preceding
    #: pipeline slot's online phase under a day-scoped pipelined schedule:
    #: every non-anchor window's offline work (pool warm-ups, prepared
    #: comparisons, OT-extension batches) can be pre-staged while the
    #: previous window's online phase runs.  Recorded identically whether
    #: or not the run actually pipelined — like every per-window counter it
    #: is a pure function of the window (given the day's anchor), which is
    #: what lets ``identical_to`` fold it into the bit-identity certificate
    #: across worker counts, transports *and* pipeline modes.  Zero for
    #: window-scoped runs (sessions die at the boundary the pre-staging
    #: would have to cross) and for the anchor window (nothing precedes it).
    pipeline_overlap_seconds: float = 0.0

    def bytes_for_kinds(self, kinds) -> int:
        """Total bytes of the given message kinds."""
        return sum(self.bytes_by_kind.get(kind, 0) for kind in kinds)

    def record_extra_bytes(
        self, party: str, sent: int = 0, received: int = 0, kind: str = "out_of_band"
    ) -> None:
        """Charge additional bytes to a party (e.g. garbled-circuit traffic)."""
        self.per_party[party].bytes_sent += sent
        self.per_party[party].bytes_received += received
        self.total_bytes += sent + received
        self.bytes_by_kind[kind] += sent + received

    def add_time(self, seconds: float) -> None:
        """Accumulate simulated critical-path (online) time."""
        self.simulated_seconds += seconds

    def add_offline_time(self, seconds: float) -> None:
        """Accumulate simulated idle-time (offline precompute) seconds."""
        self.offline_seconds += seconds

    def add_gc_offline_time(self, seconds: float) -> None:
        """Accumulate idle-time garbled-comparison preparation seconds."""
        self.gc_offline_seconds += seconds

    def record_pool_fallback(self, count: int = 1) -> None:
        """Count encryptions that fell back to online exponentiation."""
        self.pool_fallbacks += count

    def record_gc_fallback(self, count: int = 1) -> None:
        """Count comparisons that ran the classic Yao protocol online."""
        self.gc_fallbacks += count

    def record_aggregation(self, topology: str, hops: int, rounds: int) -> None:
        """Record one aggregation's message count and critical-path depth."""
        self.aggregation_hops[topology] += hops
        self.aggregation_rounds[topology] += rounds

    def record_sessions(self, established: int = 0, reused: int = 0) -> None:
        """Count session establishments (setup paid) and reuses (skipped)."""
        self.sessions_established += established
        self.sessions_reused += reused

    def record_pipeline_overlap(self, seconds: float) -> None:
        """Count offline seconds eligible to overlap the previous slot."""
        self.pipeline_overlap_seconds += seconds

    def merge(self, other: "TrafficStats") -> None:
        """Merge another stats object into this one (e.g. per-window totals)."""
        for party, traffic in other.per_party.items():
            self.per_party[party].merge(traffic)
        self.total_messages += other.total_messages
        self.total_bytes += other.total_bytes
        for kind, size in other.bytes_by_kind.items():
            self.bytes_by_kind[kind] += size
        self.simulated_seconds += other.simulated_seconds
        self.offline_seconds += other.offline_seconds
        self.gc_offline_seconds += other.gc_offline_seconds
        self.pool_fallbacks += other.pool_fallbacks
        self.gc_fallbacks += other.gc_fallbacks
        for topology, hops in other.aggregation_hops.items():
            self.aggregation_hops[topology] += hops
        for topology, rounds in other.aggregation_rounds.items():
            self.aggregation_rounds[topology] += rounds
        self.sessions_established += other.sessions_established
        self.sessions_reused += other.sessions_reused
        self.pipeline_overlap_seconds += other.pipeline_overlap_seconds

    def average_bytes_per_party(self, parties: Iterable[str] | None = None) -> float:
        """Average total traffic (sent + received) across parties, in bytes.

        Args:
            parties: restrict the average to these party ids; default is all
                parties that appear in the counters.
        """
        ids = list(parties) if parties is not None else list(self.per_party)
        if not ids:
            return 0.0
        total = sum(self.per_party[p].total_bytes for p in ids if p in self.per_party)
        return total / len(ids)

    def average_megabytes_per_party(self, parties: Iterable[str] | None = None) -> float:
        """Average per-party traffic in megabytes (the unit of Table I)."""
        return self.average_bytes_per_party(parties) / (1024 * 1024)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Return a plain-dict snapshot (for reporting / JSON output)."""
        return {
            party: {
                "messages_sent": t.messages_sent,
                "messages_received": t.messages_received,
                "bytes_sent": t.bytes_sent,
                "bytes_received": t.bytes_received,
            }
            for party, t in self.per_party.items()
        }
