"""The planner's optimality certificate: ``plan`` is the canonical argmin.

For hypothesis-generated small fleets the test scores every feasible
candidate itself and holds the plan to it: no candidate is cheaper, and
among the candidates tied at the optimal cost (float ``==``, no
tolerance) the plan is the one first in canonical enumeration order.
Determinism pins ride along: same spec → same plan, across repeated runs,
across processes with different hash seeds, and across core counts
beyond the window clamp.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planning import (
    LAN_PROFILE,
    WAN_PROFILE,
    CandidateConfig,
    FleetSpec,
    iter_candidates,
    plan,
    score_candidate,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

fleet_specs = st.builds(
    FleetSpec,
    hosts=st.integers(min_value=1, max_value=3),
    cores_per_host=st.integers(min_value=1, max_value=3),
    link=st.sampled_from((LAN_PROFILE, WAN_PROFILE)),
    agent_count=st.integers(min_value=2, max_value=48),
    windows_per_day=st.integers(min_value=1, max_value=7),
    key_size=st.sampled_from((512, 1024, 2048)),
)


@settings(max_examples=40, deadline=None)
@given(fleet_specs)
def test_plan_is_the_canonical_argmin(spec):
    deployment = plan(spec)
    scored = [score_candidate(spec, candidate) for candidate in iter_candidates(spec)]
    assert deployment.space_size == len(scored)
    optimal = deployment.chosen.day_seconds
    # Bit-equal cost: the plan's score is the candidate's own score.
    assert optimal == score_candidate(spec, deployment.chosen.candidate).day_seconds
    assert all(optimal <= other.day_seconds for other in scored)
    tied = [other.candidate for other in scored if other.day_seconds == optimal]
    assert deployment.chosen.candidate == min(tied, key=CandidateConfig.sort_key)


# Chosen configs and predicted costs of the fleets the repo plans (the
# bench regimes, the ``make ci`` smoke fleet, the README example) and a
# few corners, pinned bit-exactly: a change to the search or the predictor
# that moves any of them must say so.
PINNED_PLANS = [
    ("lan_single_host", dict(hosts=1, cores_per_host=4, agent_count=12, windows_per_day=6),
     (1024, "tree:4", "day", True, "local", 3), 0.80241392, 96),
    ("lan_cluster", dict(hosts=4, cores_per_host=4, agent_count=64, windows_per_day=12),
     (1024, "tree:8", "window", False, "socket", 12), 1.23042944, 144),
    ("wan_homes", dict(hosts=16, cores_per_host=1, link=WAN_PROFILE, agent_count=32,
                       windows_per_day=8),
     (1024, "tree:8", "window", False, "socket", 8), 1.1318432, 96),
    ("ci_smoke", dict(hosts=2, cores_per_host=2, agent_count=8, windows_per_day=3),
     (1024, "tree:8", "window", False, "socket", 3), 0.76881824, 36),
    ("readme_example", dict(hosts=4, cores_per_host=2, link=WAN_PROFILE, agent_count=32,
                            windows_per_day=8),
     (1024, "tree:8", "window", False, "socket", 8), 1.1318432, 96),
    ("defaults", dict(),
     (1024, "tree:4", "day", True, "local", 1), 1.1915918399999998, 24),
    ("wan_single_host", dict(hosts=1, cores_per_host=2, link=WAN_PROFILE, agent_count=16,
                             windows_per_day=4),
     (1024, "tree:4", "day", True, "local", 2), 0.9338432, 48),
    ("three_key_sizes", dict(hosts=2, cores_per_host=3, agent_count=24, windows_per_day=5,
                             key_size_candidates=(512, 2048)),
     (512, "tree:8", "window", False, "socket", 5), 0.7326489599999999, 180),
]


@pytest.mark.parametrize(
    "fields,knobs,day_seconds,space_size",
    [pytest.param(*case[1:], id=case[0]) for case in PINNED_PLANS],
)
def test_pinned_fleets_plan_as_recorded(fields, knobs, day_seconds, space_size):
    deployment = plan(FleetSpec(**fields))
    assert deployment.chosen.candidate == CandidateConfig(*knobs)
    assert deployment.chosen.day_seconds == day_seconds
    assert deployment.space_size == space_size


@pytest.mark.parametrize(
    "fields",
    [
        dict(hosts=1, cores_per_host=1, windows_per_day=1),
        dict(hosts=1, cores_per_host=3, windows_per_day=7),
        dict(hosts=1, cores_per_host=8, windows_per_day=3),
        dict(hosts=2, cores_per_host=2, windows_per_day=6),
        dict(hosts=3, cores_per_host=1, windows_per_day=2, key_size_candidates=(512,)),
        dict(hosts=1, cores_per_host=2, windows_per_day=4,
             key_size_candidates=(512, 2048)),
    ],
)
def test_space_size_is_the_feasible_product(fields):
    # Every feasible combination is enumerated exactly once: 4 topologies
    # x 3 (scope, pipeline) pairs x transports x worker counts
    # x key sizes, with one transport on a multi-host fleet.
    spec = FleetSpec(agent_count=8, **fields)
    transports = 2 if spec.hosts == 1 else 1
    workers = min(spec.total_cores, spec.windows_per_day)
    expected = len(spec.key_sizes) * 4 * 3 * transports * workers
    candidates = list(iter_candidates(spec))
    assert len(set(candidates)) == len(candidates) == expected
    assert plan(spec).space_size == expected


def test_plan_converts_to_runtime_types():
    deployment = plan(
        FleetSpec(hosts=1, cores_per_host=4, agent_count=12, windows_per_day=6)
    )
    chosen = deployment.chosen.candidate
    config = deployment.protocol_config(crypto_key_size=128)
    assert config.key_size == 128
    assert config.aggregation_topology == chosen.topology
    assert config.session_scope == chosen.session_scope
    assert config.transport == chosen.transport
    execution = deployment.execution_plan(range(300, 306))
    assert execution.pipeline == chosen.pipeline
    assert execution.strategy == "stride"
    assert len(execution.shards) == chosen.workers
    assert sorted(w for shard in execution.shards for w in shard) == list(range(300, 306))


@settings(max_examples=20, deadline=None)
@given(fleet_specs)
def test_same_spec_same_plan(spec):
    first = plan(spec)
    second = plan(spec)
    assert first.chosen.candidate == second.chosen.candidate
    assert first.chosen.day_seconds == second.chosen.day_seconds
    assert first.to_dict() == second.to_dict()


def test_plan_invariant_to_surplus_cores():
    # Worker options are clamped to the window count, so cores beyond it
    # cannot change the plan — "same plan across worker counts".
    base = FleetSpec(hosts=1, cores_per_host=4, agent_count=12, windows_per_day=4)
    surplus = FleetSpec(hosts=1, cores_per_host=64, agent_count=12, windows_per_day=4)
    a, b = plan(base), plan(surplus)
    assert a.chosen.candidate == b.chosen.candidate
    assert a.chosen.day_seconds == b.chosen.day_seconds


def test_plan_deterministic_across_processes():
    # Re-derive the same plan in fresh interpreters under two different
    # hash seeds: the plan must not depend on set/dict iteration order.
    program = (
        "import json, sys\n"
        "sys.path.insert(0, 'src')\n"
        "from repro.planning import FleetSpec, plan\n"
        "spec = FleetSpec(hosts=2, cores_per_host=2, agent_count=24,"
        " windows_per_day=6)\n"
        "print(json.dumps(plan(spec).to_dict(), sort_keys=True))\n"
    )
    outputs = []
    for hash_seed in ("0", "4242"):
        result = subprocess.run(
            [sys.executable, "-c", program],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
        )
        outputs.append(json.loads(result.stdout))
    assert outputs[0] == outputs[1]
    # And the in-process plan agrees with the subprocess ones.
    spec = FleetSpec(hosts=2, cores_per_host=2, agent_count=24, windows_per_day=6)
    assert plan(spec).to_dict() == outputs[0]


def test_tie_break_is_canonical_order():
    # Whenever several candidates share the optimal cost, the planner must
    # return the canonically-first one; spelled out here on a real spec.
    spec = FleetSpec(hosts=1, cores_per_host=2, agent_count=8, windows_per_day=2)
    deployment = plan(spec)
    optimal = deployment.chosen.day_seconds
    tied = [
        candidate
        for candidate in iter_candidates(spec)
        if score_candidate(spec, candidate).day_seconds == optimal
    ]
    assert deployment.chosen.candidate == min(tied, key=lambda c: c.sort_key())
