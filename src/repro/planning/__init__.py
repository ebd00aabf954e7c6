"""Constraint-driven deployment planning for the PEM runtime.

Given the fixed facts of a fleet (:class:`FleetSpec` — hosts, cores,
link profile, agents, windows per day) the planner searches the discrete
deployment space the runtime grew over PRs 1-8 — aggregation topology,
session scope, transport, worker count, offline/online pipelining,
key size — scoring every candidate with pure functions of
the calibrated :class:`~repro.net.costmodel.CostModel` and returning the
argmin as a ready-to-run :class:`~repro.core.protocols.ProtocolConfig` +
:class:`~repro.runtime.ExecutionPlan`.

:func:`plan` is the exhaustive ``(day_seconds, sort_key)`` argmin over
the feasible space; ``tests/planning/`` re-scores that space to certify
the choice and its canonical tie-break, and pins determinism.  See
``docs/PLANNER.md``.
"""

from .costing import (
    ComparatorProfile,
    WindowPhases,
    anchor_window_count,
    build_cost_model,
    candidate_day_seconds,
    comparator_profile,
    dispatch_seconds,
    shard_day_seconds,
    window_phases,
)
from .fleet import LAN_PROFILE, WAN_PROFILE, FleetSpec, LinkProfile, resolve_link_profile
from .search import (
    AXES,
    TOPOLOGIES,
    CandidateConfig,
    DeploymentPlan,
    ScoredCandidate,
    iter_candidates,
    naive_candidate,
    plan,
    score_candidate,
)

__all__ = [
    "AXES",
    "TOPOLOGIES",
    "CandidateConfig",
    "ComparatorProfile",
    "DeploymentPlan",
    "FleetSpec",
    "LAN_PROFILE",
    "LinkProfile",
    "ScoredCandidate",
    "WAN_PROFILE",
    "WindowPhases",
    "anchor_window_count",
    "build_cost_model",
    "candidate_day_seconds",
    "comparator_profile",
    "dispatch_seconds",
    "iter_candidates",
    "naive_candidate",
    "plan",
    "resolve_link_profile",
    "score_candidate",
    "shard_day_seconds",
    "window_phases",
]
