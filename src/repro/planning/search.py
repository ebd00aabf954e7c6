"""Deployment search: exhaustive oracle + branch-and-bound planner.

The discrete configuration space of a PEM day is the cross product of the
deployment knobs the runtime grew over PRs 1-8: aggregation topology
(chain or k-ary tree), session scope, transport, garbling scheme, worker
count and offline/online pipelining, plus the key size(s) the operator
allows.  Two constraints carve out the *feasible* region:

* ``pipeline=True`` requires ``session_scope="day"`` (pre-staged offline
  material must survive the window boundary — the runner enforces the
  same rule at execution time);
* more than one host requires ``transport="socket"`` (``LocalTransport``
  messages are in-process and cannot reach a remote host).

Candidates are scored by the pure predictor in
:mod:`repro.planning.costing`; the planner returns the *argmin* under the
deterministic total order ``(day_seconds, sort_key)`` where ``sort_key``
is the candidate's position in canonical enumeration order — so ties are
broken identically everywhere and "same spec → same plan" holds across
runs and machines.

Two search procedures share that cost function and tie-break:

* :func:`exhaustive_argmin` — the brute-force oracle: score every
  feasible candidate.  Slow but unarguable; the certificate the test
  suite compares the planner against (bit-equal cost, identical config).
* :func:`plan` — depth-first branch-and-bound.  At each partial
  assignment it computes a *lower bound* by evaluating the (monotone)
  day-cost fold at the componentwise minima of every undetermined phase
  scalar, the maximal worker count (fewest anchor-shard windows), the
  pipelined schedule (never slower than unpipelined) and the cheapest
  dispatch.  A subtree is pruned only when its bound *strictly* exceeds
  the best cost found so far, so a pruned region can never contain a
  candidate matching the optimum — the soundness property
  ``tests/planning/test_pruning.py`` checks region by region via the
  :class:`PruneRecord` ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.protocols import ProtocolConfig
from ..runtime import ExecutionPlan
from .costing import (
    WindowPhases,
    anchor_window_count,
    candidate_day_seconds,
    dispatch_seconds,
    shard_day_seconds,
    window_phases,
)
from .fleet import FleetSpec

__all__ = [
    "AXES",
    "TOPOLOGIES",
    "CandidateConfig",
    "ScoredCandidate",
    "PruneRecord",
    "DeploymentPlan",
    "iter_candidates",
    "naive_candidate",
    "score_candidate",
    "exhaustive_argmin",
    "plan",
]

#: Search axes in canonical (enumeration and tie-break) order.
AXES = (
    "key_size",
    "topology",
    "session_scope",
    "pipeline",
    "transport",
    "garbling_scheme",
    "workers",
)

TOPOLOGIES = ("chain", "tree:2", "tree:4", "tree:8")
SESSION_SCOPES = ("window", "day")
TRANSPORTS = ("local", "socket")
GARBLING_SCHEMES = ("classic", "halfgates")


@dataclass(frozen=True)
class CandidateConfig:
    """One point of the deployment search space (pure data, hashable)."""

    key_size: int
    topology: str
    session_scope: str
    pipeline: bool
    transport: str
    garbling_scheme: str
    workers: int

    def sort_key(self) -> Tuple:
        """Position in canonical enumeration order — the global tie-break."""
        return (
            self.key_size,
            TOPOLOGIES.index(self.topology),
            SESSION_SCOPES.index(self.session_scope),
            int(self.pipeline),
            TRANSPORTS.index(self.transport),
            GARBLING_SCHEMES.index(self.garbling_scheme),
            self.workers,
        )

    def to_dict(self) -> Dict:
        return {
            "key_size": self.key_size,
            "topology": self.topology,
            "session_scope": self.session_scope,
            "pipeline": self.pipeline,
            "transport": self.transport,
            "garbling_scheme": self.garbling_scheme,
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
            garbling_scheme=self.garbling_scheme,
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
            f"{self.garbling_scheme} / {self.workers} worker(s) / {pipe} / "
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
    if axis == "garbling_scheme":
        return GARBLING_SCHEMES
    if axis == "workers":
        return tuple(range(1, min(spec.total_cores, spec.windows_per_day) + 1))
    raise ValueError(f"unknown search axis {axis!r}")


def iter_candidates(
    spec: FleetSpec, partial: Optional[Dict] = None
) -> Iterator[CandidateConfig]:
    """All feasible candidates (of the region pinned by ``partial``), in
    canonical order."""
    assigned = dict(partial or {})

    def expand(depth: int) -> Iterator[CandidateConfig]:
        if depth == len(AXES):
            yield CandidateConfig(**assigned)
            return
        axis = AXES[depth]
        if axis in assigned:
            yield from expand(depth + 1)
            return
        for value in axis_options(spec, axis, assigned):
            assigned[axis] = value
            yield from expand(depth + 1)
            del assigned[axis]

    yield from expand(0)


def naive_candidate(spec: FleetSpec) -> CandidateConfig:
    """The seed deployment: serial chain, per-window sessions, classic
    garbling, one worker — in-process messages when one host suffices."""
    return CandidateConfig(
        key_size=spec.key_size,
        topology="chain",
        session_scope="window",
        pipeline=False,
        transport="local" if spec.hosts == 1 else "socket",
        garbling_scheme="classic",
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
        candidate.garbling_scheme,
        candidate.workers,
        candidate.pipeline,
    )
    return ScoredCandidate(candidate=candidate, day_seconds=total, breakdown=breakdown)


def exhaustive_argmin(spec: FleetSpec) -> ScoredCandidate:
    """The brute-force oracle: argmin of ``(day_seconds, sort_key)`` over
    the *entire* feasible space."""
    best: Optional[ScoredCandidate] = None
    for candidate in iter_candidates(spec):
        scored = score_candidate(spec, candidate)
        if best is None or (scored.day_seconds, candidate.sort_key()) < (
            best.day_seconds,
            best.candidate.sort_key(),
        ):
            best = scored
    assert best is not None  # the feasible space is never empty
    return best


@dataclass(frozen=True)
class PruneRecord:
    """One pruned subtree of the branch-and-bound search.

    ``assigned`` pins the axes fixed at the pruned node (in :data:`AXES`
    order); the region it denotes is ``iter_candidates(spec,
    dict(assigned))``.  Soundness invariant: every candidate in the
    region costs at least ``lower_bound``, which strictly exceeded
    ``best_cost_at_prune`` — itself an upper bound on the optimum — so
    the region cannot contain the optimum.
    """

    assigned: Tuple[Tuple[str, object], ...]
    lower_bound: float
    best_cost_at_prune: float
    configs_pruned: int


_PHASE_AXES = ("key_size", "topology", "session_scope", "transport", "garbling_scheme")


def _phase_minima(spec: FleetSpec, partial: Dict) -> WindowPhases:
    """Componentwise minima of the per-window phase scalars over every
    completion of ``partial``'s phase-relevant axes."""
    option_lists = [
        (partial[axis],) if axis in partial else axis_options(spec, axis, partial)
        for axis in _PHASE_AXES
    ]
    minima = [float("inf")] * 4
    for key_size, topology, scope, transport, scheme in product(*option_lists):
        phases = window_phases(spec, key_size, topology, scope, transport, scheme)
        values = (
            phases.offline_seconds,
            phases.online_seconds,
            phases.anchor_offline_extra,
            phases.anchor_online_extra,
        )
        minima = [min(current, value) for current, value in zip(minima, values)]
    return WindowPhases(*minima)


def _lower_bound(spec: FleetSpec, partial: Dict) -> float:
    """A sound lower bound on the day cost of every completion of
    ``partial`` — the monotone day fold evaluated at componentwise
    minima (see the module docstring for the argument)."""
    phases = _phase_minima(spec, partial)
    worker_options = (
        (partial["workers"],)
        if "workers" in partial
        else axis_options(spec, "workers", partial)
    )
    count = anchor_window_count(spec.windows_per_day, max(worker_options))
    pipeline = partial.get("pipeline", True)  # pipelined is never slower
    shard = shard_day_seconds(phases, count, bool(pipeline))
    transport_options = (
        (partial["transport"],)
        if "transport" in partial
        else axis_options(spec, "transport", partial)
    )
    dispatch = min(
        dispatch_seconds(spec, workers, transport, spec.key_size)
        for workers in worker_options
        for transport in transport_options
    )
    return shard + dispatch


@dataclass
class DeploymentPlan:
    """The planner's output: chosen deployment, baseline, and search audit."""

    spec: FleetSpec
    chosen: ScoredCandidate
    naive: ScoredCandidate
    candidates_evaluated: int
    candidates_pruned: int
    space_size: int
    prune_records: Tuple[PruneRecord, ...] = field(default_factory=tuple)

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
            "candidates_evaluated": self.candidates_evaluated,
            "candidates_pruned": self.candidates_pruned,
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
        lines.append(
            f"search           : {self.candidates_evaluated} scored, "
            f"{self.candidates_pruned} pruned by bound, "
            f"{self.space_size} feasible configs"
        )
        return "\n".join(lines)


def _count_region(spec: FleetSpec, partial: Dict) -> int:
    return sum(1 for _ in iter_candidates(spec, partial))


def plan(spec: FleetSpec) -> DeploymentPlan:
    """Branch-and-bound search for the cost-optimal deployment.

    Returns the same ``(day_seconds, sort_key)``-argmin as
    :func:`exhaustive_argmin` — bit-equal cost, identical candidate —
    which ``tests/planning/test_planner_oracle.py`` certifies on
    hypothesis-generated fleets.
    """
    best: Optional[ScoredCandidate] = None
    records: List[PruneRecord] = []
    evaluated = 0
    pruned = 0
    partial: Dict = {}

    def recurse(depth: int) -> None:
        nonlocal best, evaluated, pruned
        if depth == len(AXES):
            scored = score_candidate(spec, CandidateConfig(**partial))
            evaluated += 1
            if best is None or scored.day_seconds < best.day_seconds:
                best = scored
            return
        if best is not None and depth > 0:
            bound = _lower_bound(spec, partial)
            if bound > best.day_seconds:
                size = _count_region(spec, partial)
                pruned += size
                records.append(
                    PruneRecord(
                        assigned=tuple(
                            (axis, partial[axis]) for axis in AXES if axis in partial
                        ),
                        lower_bound=bound,
                        best_cost_at_prune=best.day_seconds,
                        configs_pruned=size,
                    )
                )
                return
        axis = AXES[depth]
        for value in axis_options(spec, axis, partial):
            partial[axis] = value
            recurse(depth + 1)
            del partial[axis]

    recurse(0)
    assert best is not None
    return DeploymentPlan(
        spec=spec,
        chosen=best,
        naive=score_candidate(spec, naive_candidate(spec)),
        candidates_evaluated=evaluated,
        candidates_pruned=pruned,
        space_size=evaluated + pruned,
        prune_records=tuple(records),
    )
