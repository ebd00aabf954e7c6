"""Cost predictor and search-space invariants, plus the CLI smoke.

The predictor must stay consistent with the calibrated
:class:`~repro.net.costmodel.CostModel` (a chain aggregation over local
pipes *is* ``chain_cost``, bit-equal), the feasibility constraints must
hold for every enumerated candidate, and the ``repro plan`` entry point
must round-trip through argparse/JSON without touching real crypto.
"""

import json

import pytest

from repro.planning import (
    LAN_PROFILE,
    WAN_PROFILE,
    FleetSpec,
    LinkProfile,
    build_cost_model,
    comparator_profile,
    iter_candidates,
    naive_candidate,
    plan,
    score_candidate,
)
from repro.planning.cli import main as plan_main
from repro.planning.costing import aggregation_online_seconds, _ciphertext_bytes
from repro.planning.search import CandidateConfig


# ---------------------------------------------------------------------------
# Feasible-space invariants


def test_every_candidate_satisfies_feasibility_constraints():
    spec = FleetSpec(
        hosts=2,
        cores_per_host=3,
        link=WAN_PROFILE,
        agent_count=16,
        windows_per_day=5,
        key_size=1024,
        key_size_candidates=(512, 2048),
    )
    candidates = list(iter_candidates(spec))
    assert candidates
    for candidate in candidates:
        # Pipelining needs day-scoped sessions (offline material must
        # survive the window boundary).
        if candidate.pipeline:
            assert candidate.session_scope == "day"
        # Multi-host fleets cannot trade over in-process messages.
        assert candidate.transport == "socket"
        assert 1 <= candidate.workers <= min(spec.total_cores, spec.windows_per_day)
        assert candidate.key_size in spec.key_sizes


def test_single_host_fleet_may_use_local_transport():
    spec = FleetSpec(hosts=1, cores_per_host=2, agent_count=8, windows_per_day=3)
    transports = {c.transport for c in iter_candidates(spec)}
    assert transports == {"local", "socket"}


def test_canonical_order_is_strictly_increasing():
    spec = FleetSpec(
        hosts=1,
        cores_per_host=2,
        agent_count=8,
        windows_per_day=3,
        key_size_candidates=(512,),
    )
    keys = [c.sort_key() for c in iter_candidates(spec)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_naive_candidate_is_in_the_feasible_space():
    for spec in (
        FleetSpec(hosts=1, cores_per_host=2, agent_count=8, windows_per_day=3),
        FleetSpec(hosts=3, cores_per_host=1, agent_count=8, windows_per_day=3),
    ):
        assert naive_candidate(spec) in set(iter_candidates(spec))


def test_planned_never_worse_than_naive():
    for spec in (
        FleetSpec(hosts=1, cores_per_host=4, agent_count=12, windows_per_day=6),
        FleetSpec(
            hosts=4, cores_per_host=2, link=WAN_PROFILE, agent_count=32, windows_per_day=8
        ),
    ):
        deployment = plan(spec)
        assert deployment.chosen.day_seconds <= deployment.naive.day_seconds
        assert deployment.predicted_speedup >= 1.0


# ---------------------------------------------------------------------------
# Predictor consistency with the calibrated cost model


def test_chain_aggregation_over_pipes_is_exactly_chain_cost():
    spec = FleetSpec(hosts=1, cores_per_host=1, agent_count=10, windows_per_day=1)
    model = build_cost_model(spec, spec.key_size)
    cipher = _ciphertext_bytes(spec.key_size)
    assert aggregation_online_seconds(
        model, "chain", spec.agent_count, cipher, "local"
    ) == model.chain_cost(spec.agent_count, cipher)


def test_socket_transport_charges_an_extra_ack_per_hop():
    spec = FleetSpec(hosts=1, cores_per_host=1, agent_count=10, windows_per_day=1)
    model = build_cost_model(spec, spec.key_size)
    cipher = _ciphertext_bytes(spec.key_size)
    local = aggregation_online_seconds(model, "chain", 10, cipher, "local")
    socket = aggregation_online_seconds(model, "chain", 10, cipher, "socket")
    assert socket == pytest.approx(
        local + 10 * model.network.per_message_latency_seconds
    )


def test_halfgates_tables_smaller_same_gate_count():
    classic = comparator_profile(64, "classic")
    halfgates = comparator_profile(64, "halfgates")
    # Gate accounting is scheme-independent (engine convention) ...
    assert classic.and_gate_count == halfgates.and_gate_count
    # ... only the serialized tables shrink (two rows instead of four+).
    assert halfgates.table_bytes < classic.table_bytes


def test_day_scope_never_dearer_than_window_scope():
    spec = FleetSpec(hosts=1, cores_per_host=4, agent_count=12, windows_per_day=6)
    for window_scoped in iter_candidates(spec, {"session_scope": "window"}):
        day_scoped = CandidateConfig(
            **{**window_scoped.to_dict(), "session_scope": "day"}
        )
        assert (
            score_candidate(spec, day_scoped).day_seconds
            <= score_candidate(spec, window_scoped).day_seconds
        )


def test_pipeline_never_dearer_at_same_knobs():
    spec = FleetSpec(hosts=1, cores_per_host=4, agent_count=12, windows_per_day=6)
    for unpiped in iter_candidates(spec, {"session_scope": "day", "pipeline": False}):
        piped = CandidateConfig(**{**unpiped.to_dict(), "pipeline": True})
        assert (
            score_candidate(spec, piped).day_seconds
            <= score_candidate(spec, unpiped).day_seconds
        )


def test_wan_fleet_costs_more_than_lan_fleet():
    lan = FleetSpec(hosts=1, cores_per_host=2, link=LAN_PROFILE, agent_count=12,
                    windows_per_day=4)
    wan = FleetSpec(hosts=1, cores_per_host=2, link=WAN_PROFILE, agent_count=12,
                    windows_per_day=4)
    for candidate in iter_candidates(lan):
        assert (
            score_candidate(wan, candidate).day_seconds
            >= score_candidate(lan, candidate).day_seconds
        )


# ---------------------------------------------------------------------------
# Fleet-spec contract


def test_fleet_spec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FleetSpec(hosts=0)
    with pytest.raises(ValueError):
        FleetSpec(agent_count=1)
    with pytest.raises(ValueError):
        FleetSpec(key_size=32)
    with pytest.raises(ValueError):
        FleetSpec(hosts=True)
    with pytest.raises(ValueError):
        LinkProfile(name="bad", latency_seconds=-1.0, bandwidth_bytes_per_second=1e6)


def test_key_sizes_dedupes_and_sorts():
    spec = FleetSpec(key_size=1024, key_size_candidates=(2048, 512, 1024))
    assert spec.key_sizes == (512, 1024, 2048)


# ---------------------------------------------------------------------------
# CLI smoke (no --execute: unit tests never run real crypto)


def test_cli_json_roundtrip(capsys):
    exit_code = plan_main(
        ["--hosts", "2", "--cores-per-host", "2", "--agents", "8",
         "--windows", "3", "--json"]
    )
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fleet"]["hosts"] == 2
    assert payload["planned"]["transport"] == "socket"
    assert payload["predicted_speedup"] >= 1.0
    assert (
        payload["candidates_evaluated"] + payload["candidates_pruned"]
        == payload["space_size"]
    )


def test_cli_oracle_mode_passes(capsys):
    exit_code = plan_main(
        ["--agents", "8", "--windows", "3", "--profile", "wan", "--oracle"]
    )
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "matches the plan (bit-equal cost)" in out


def test_cli_custom_link_overrides(capsys):
    exit_code = plan_main(
        ["--agents", "8", "--windows", "2", "--latency-ms", "25",
         "--bandwidth-mbps", "1", "--json"]
    )
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fleet"]["link"] == "custom"
