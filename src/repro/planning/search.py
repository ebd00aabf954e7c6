"""Deployment search: the exhaustive ``(day_seconds, sort_key)`` argmin.

The discrete configuration space of a PEM day is the cross product of the
deployment knobs the runtime grew over PRs 1-8: aggregation topology
(chain or k-ary tree), session scope, transport, worker count and
offline/online pipelining, plus the key size(s) the operator
allows.  Two constraints carve out the *feasible* region:

* ``pipeline=True`` requires ``session_scope="day"`` (pre-staged offline
  material must survive the window boundary — the runner enforces the
  same rule at execution time);
* more than one host requires ``transport="socket"`` (``LocalTransport``
  messages are in-process and cannot reach a remote host).

:func:`plan` scores every feasible candidate with the pure predictor in
:mod:`repro.planning.costing` and returns the *argmin* under the
deterministic total order ``(day_seconds, sort_key)`` where ``sort_key``
is the candidate's position in canonical enumeration order — so ties are
broken identically everywhere and "same spec → same plan" holds across
runs and machines.  The spaces the repo plans hold a few hundred
candidates and score in milliseconds, so enumeration is the whole search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..core.protocols import ProtocolConfig
from ..runtime import ExecutionPlan
from .costing import candidate_day_seconds
from .fleet import FleetSpec

__all__ = [
    "AXES",
    "TOPOLOGIES",
    "CandidateConfig",
    "ScoredCandidate",
    "DeploymentPlan",
    "iter_candidates",
    "naive_candidate",
    "score_candidate",
    "plan",
]

#: Search axes in canonical (enumeration and tie-break) order.
AXES = (
    "key_size",
    "topology",
    "session_scope",
    "pipeline",
    "transport",
    "workers",
)

TOPOLOGIES = ("chain", "tree:2", "tree:4", "tree:8")
SESSION_SCOPES = ("window", "day")
TRANSPORTS = ("local", "socket")


@dataclass(frozen=True)
class CandidateConfig:
    """One point of the deployment search space (pure data, hashable)."""

    key_size: int
    topology: str
    session_scope: str
    pipeline: bool
    transport: str
    workers: int

    def sort_key(self) -> Tuple:
        """Position in canonical enumeration order — the global tie-break."""
        return (
            self.key_size,
            TOPOLOGIES.index(self.topology),
            SESSION_SCOPES.index(self.session_scope),
            int(self.pipeline),
            TRANSPORTS.index(self.transport),
            self.workers,
        )

    def to_dict(self) -> Dict:
        return {
            "key_size": self.key_size,
            "topology": self.topology,
            "session_scope": self.session_scope,
            "pipeline": self.pipeline,
            "transport": self.transport,
            "workers": self.workers,
        }

    def protocol_config(
        self, crypto_key_size: Optional[int] = None, **overrides
    ) -> ProtocolConfig:
        """The :class:`ProtocolConfig` that executes this candidate.

        ``crypto_key_size`` substitutes a smaller *actual* Paillier key
        (the experiment convention: real crypto at a fast key size, the
        cost model charged at the planned one) without touching the
        deployment knobs the planner chose.
        """
        return ProtocolConfig(
            key_size=crypto_key_size or self.key_size,
            key_pool_size=4,
            seed=7,
            aggregation_topology=self.topology,
            session_scope=self.session_scope,
            transport=self.transport,
            **overrides,
        )

    def execution_plan(self, windows: Sequence[int]) -> ExecutionPlan:
        """The :class:`ExecutionPlan` that shards ``windows`` as planned."""
        return ExecutionPlan.for_windows(
            windows, self.workers, strategy="stride", pipeline=self.pipeline
        )

    def describe(self) -> str:
        pipe = "pipelined" if self.pipeline else "unpipelined"
        return (
            f"{self.topology} / {self.session_scope}-scope / {self.transport} / "
            f"{self.workers} worker(s) / {pipe} / "
            f"{self.key_size}-bit key"
        )


def axis_options(spec: FleetSpec, axis: str, partial: Dict) -> Tuple:
    """Feasible options of ``axis`` given the already-assigned ``partial``.

    ``partial`` assigns axes in :data:`AXES` order, so ``session_scope``
    is always resolved before ``pipeline`` is asked for.
    """
    if axis == "key_size":
        return spec.key_sizes
    if axis == "topology":
        return TOPOLOGIES
    if axis == "session_scope":
        return SESSION_SCOPES
    if axis == "pipeline":
        if partial.get("session_scope") == "window":
            return (False,)
        return (False, True)
    if axis == "transport":
        return TRANSPORTS if spec.hosts == 1 else ("socket",)
    if axis == "workers":
        return tuple(range(1, min(spec.total_cores, spec.windows_per_day) + 1))
    raise ValueError(f"unknown search axis {axis!r}")


def iter_candidates(spec: FleetSpec) -> Iterator[CandidateConfig]:
    """All feasible candidates, in canonical order."""
    assigned: Dict = {}

    def expand(depth: int) -> Iterator[CandidateConfig]:
        if depth == len(AXES):
            yield CandidateConfig(**assigned)
            return
        axis = AXES[depth]
        for value in axis_options(spec, axis, assigned):
            assigned[axis] = value
            yield from expand(depth + 1)
            del assigned[axis]

    yield from expand(0)


def naive_candidate(spec: FleetSpec) -> CandidateConfig:
    """The seed deployment: serial chain, per-window sessions, one worker —
    in-process messages when one host suffices."""
    return CandidateConfig(
        key_size=spec.key_size,
        topology="chain",
        session_scope="window",
        pipeline=False,
        transport="local" if spec.hosts == 1 else "socket",
        workers=1,
    )


@dataclass(frozen=True)
class ScoredCandidate:
    """A candidate with its predicted day cost and breakdown."""

    candidate: CandidateConfig
    day_seconds: float
    breakdown: Dict[str, float]


def score_candidate(spec: FleetSpec, candidate: CandidateConfig) -> ScoredCandidate:
    """Score one candidate with the pure cost predictor."""
    total, breakdown = candidate_day_seconds(
        spec,
        candidate.key_size,
        candidate.topology,
        candidate.session_scope,
        candidate.transport,
        candidate.workers,
        candidate.pipeline,
    )
    return ScoredCandidate(candidate=candidate, day_seconds=total, breakdown=breakdown)


@dataclass
class DeploymentPlan:
    """The planner's output: chosen deployment, baseline, and the size of
    the feasible space it scored."""

    spec: FleetSpec
    chosen: ScoredCandidate
    naive: ScoredCandidate
    space_size: int

    @property
    def predicted_speedup(self) -> float:
        """Predicted day-cost ratio of the naive default over the plan."""
        if self.chosen.day_seconds <= 0:
            return 1.0
        return self.naive.day_seconds / self.chosen.day_seconds

    def protocol_config(
        self, crypto_key_size: Optional[int] = None, **overrides
    ) -> ProtocolConfig:
        return self.chosen.candidate.protocol_config(crypto_key_size, **overrides)

    def execution_plan(self, windows: Sequence[int]) -> ExecutionPlan:
        return self.chosen.candidate.execution_plan(windows)

    def to_dict(self) -> Dict:
        return {
            "fleet": {
                "hosts": self.spec.hosts,
                "cores_per_host": self.spec.cores_per_host,
                "link": self.spec.link.name,
                "agent_count": self.spec.agent_count,
                "windows_per_day": self.spec.windows_per_day,
                "key_size": self.spec.key_size,
            },
            "planned": self.chosen.candidate.to_dict(),
            "planned_day_seconds": self.chosen.day_seconds,
            "breakdown": dict(self.chosen.breakdown),
            "naive": self.naive.candidate.to_dict(),
            "naive_day_seconds": self.naive.day_seconds,
            "predicted_speedup": self.predicted_speedup,
            "space_size": self.space_size,
        }

    def describe(self) -> str:
        """Multi-line human-readable plan (the ``repro plan`` output)."""
        chosen = self.chosen
        lines = [
            f"fleet            : {self.spec.describe()}",
            f"planned config   : {chosen.candidate.describe()}",
            f"predicted day    : {chosen.day_seconds:.3f} s "
            f"(naive default: {self.naive.day_seconds:.3f} s, "
            f"{self.predicted_speedup:.2f}x)",
            "cost breakdown   :",
        ]
        for key in (
            "online_seconds_per_window",
            "offline_seconds_per_window",
            "anchor_online_extra_seconds",
            "anchor_offline_extra_seconds",
            "anchor_shard_windows",
            "anchor_shard_day_seconds",
            "dispatch_seconds",
        ):
            lines.append(f"  {key:<30s}: {chosen.breakdown[key]:.4f}")
        lines.append(f"search           : {self.space_size} feasible configs scored")
        return "\n".join(lines)


def plan(spec: FleetSpec) -> DeploymentPlan:
    """The cost-optimal deployment: score every feasible candidate and
    return the ``(day_seconds, sort_key)`` argmin."""
    best: Optional[ScoredCandidate] = None
    space_size = 0
    for candidate in iter_candidates(spec):
        scored = score_candidate(spec, candidate)
        space_size += 1
        if best is None or (scored.day_seconds, candidate.sort_key()) < (
            best.day_seconds,
            best.candidate.sort_key(),
        ):
            best = scored
    assert best is not None  # the feasible space is never empty
    return DeploymentPlan(
        spec=spec,
        chosen=best,
        naive=score_candidate(spec, naive_candidate(spec)),
        space_size=space_size,
    )
