"""Cost predictor and search-space invariants, plus the CLI smoke.

The predictor must stay consistent with the calibrated
:class:`~repro.net.costmodel.CostModel` (a chain aggregation over local
pipes *is* ``layered_aggregation_cost`` at depth n, bit-equal), the feasibility constraints must
hold for every enumerated candidate, and the ``repro plan`` entry point
must round-trip through argparse/JSON without touching real crypto.
"""

import json

import pytest

from repro.analysis.experiments import _planner_engine, experiment_planner_execution
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
from repro.planning.search import AXES, CandidateConfig


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


def test_chain_aggregation_over_pipes_is_exactly_one_message_time_a_hop():
    spec = FleetSpec(hosts=1, cores_per_host=1, agent_count=10, windows_per_day=1)
    model = build_cost_model(spec, spec.key_size)
    cipher = _ciphertext_bytes(spec.key_size)
    assert aggregation_online_seconds(
        model, "chain", spec.agent_count, cipher, "local"
    ) == model.layered_aggregation_cost(spec.agent_count, cipher)


def test_socket_transport_charges_an_extra_ack_per_hop():
    spec = FleetSpec(hosts=1, cores_per_host=1, agent_count=10, windows_per_day=1)
    model = build_cost_model(spec, spec.key_size)
    cipher = _ciphertext_bytes(spec.key_size)
    local = aggregation_online_seconds(model, "chain", 10, cipher, "local")
    socket = aggregation_online_seconds(model, "chain", 10, cipher, "socket")
    assert socket == pytest.approx(
        local + 10 * model.network.per_message_latency_seconds
    )


@pytest.mark.parametrize("bits, tables", [(32, 1_344), (64, 2_624)])
def test_comparator_profile_is_one_and_gate_per_bit(bits, tables):
    # The engine charges comparisons per AND gate; the tables are 40 B per
    # AND gate plus 64 B of output decoding.
    profile = comparator_profile(bits)
    assert profile.and_gate_count == bits
    assert profile.table_bytes == tables == 40 * bits + 64


def test_day_scope_never_dearer_than_window_scope():
    spec = FleetSpec(hosts=1, cores_per_host=4, agent_count=12, windows_per_day=6)
    window_scoped_candidates = [
        c for c in iter_candidates(spec) if c.session_scope == "window"
    ]
    assert window_scoped_candidates
    for window_scoped in window_scoped_candidates:
        day_scoped = CandidateConfig(
            **{**window_scoped.to_dict(), "session_scope": "day"}
        )
        assert (
            score_candidate(spec, day_scoped).day_seconds
            <= score_candidate(spec, window_scoped).day_seconds
        )


def test_pipeline_never_dearer_at_same_knobs():
    spec = FleetSpec(hosts=1, cores_per_host=4, agent_count=12, windows_per_day=6)
    unpipelined = [
        c for c in iter_candidates(spec) if c.session_scope == "day" and not c.pipeline
    ]
    assert unpipelined
    for unpiped in unpipelined:
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
# CLI smoke (unit tests never run real crypto)


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
    spec = FleetSpec(hosts=2, cores_per_host=2, agent_count=8, windows_per_day=3)
    assert payload["space_size"] == sum(1 for _ in iter_candidates(spec))
    assert set(payload) == {
        "fleet", "planned", "planned_day_seconds", "breakdown", "naive",
        "naive_day_seconds", "predicted_speedup", "space_size",
    }


def test_cli_comparison_bits_reach_the_prediction(capsys):
    def online_seconds(bits):
        argv = ["--agents", "8", "--windows", "3", "--comparison-bits", bits, "--json"]
        assert plan_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        return payload["breakdown"]["online_seconds_per_window"]

    assert online_seconds("32") < online_seconds("64")


def test_cli_text_reports_the_scored_space(capsys):
    assert plan_main(["--agents", "8", "--windows", "3"]) == 0
    out = capsys.readouterr().out
    spec = FleetSpec(cores_per_host=4, agent_count=8, windows_per_day=3)
    assert f"search           : {plan(spec).space_size} feasible configs scored" in out


def test_cli_custom_link_overrides(capsys):
    exit_code = plan_main(
        ["--agents", "8", "--windows", "2", "--latency-ms", "25",
         "--bandwidth-mbps", "1", "--json"]
    )
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fleet"]["link"] == "custom"


# ---------------------------------------------------------------------------
# Executed certificate: fails closed, runs at the fleet's comparison width


@pytest.mark.parametrize("count", ["0", "-2", "x", "1.5"])
def test_cli_rejects_non_positive_execute(count, capsys):
    with pytest.raises(SystemExit) as exited:
        plan_main(["--agents", "8", "--windows", "3", "--execute", count])
    assert exited.value.code == 2
    assert "--execute" in capsys.readouterr().err


def test_cli_execute_fails_closed_when_no_window_runs(capsys):
    # One home never forms a market, so no window executes: the certificate
    # must not pass vacuously (no real crypto runs either).
    exit_code = plan_main(
        ["--agents", "8", "--windows", "3", "--execute", "1",
         "--execute-homes", "1", "--json"]
    )
    assert exit_code == 1
    executed = json.loads(capsys.readouterr().out)["executed"]
    assert executed["windows_executed"] == 0
    assert executed["economics_identical"] is False
    assert set(executed) == {
        "windows_executed", "economics_identical", "planned_day_seconds",
        "naive_day_seconds", "measured_speedup",
    }


def test_executed_certificate_is_false_without_windows():
    spec = FleetSpec(agent_count=8, windows_per_day=3)
    executed = experiment_planner_execution(
        spec, plan(spec).chosen.candidate, "empty", home_count=1, sample_count=1
    )
    assert executed.windows_executed == 0
    assert executed.economics_identical is False


@pytest.mark.parametrize("bits", [16, 32, 64])
def test_executed_engine_runs_at_the_fleet_comparison_width(bits):
    spec = FleetSpec(agent_count=8, windows_per_day=3, comparison_bits=bits)
    candidate = plan(spec).chosen.candidate
    engine = _planner_engine(spec, candidate, crypto_key_size=128)
    assert engine.config.comparison_bits == bits
    assert engine.config.key_size == 128
    assert engine.cost_model.crypto.key_size == candidate.key_size


def test_garbling_is_not_a_search_axis():
    """One garbling scheme: no axis, no candidate field, the config's default."""
    spec = FleetSpec(hosts=1, cores_per_host=2, agent_count=8, windows_per_day=2)
    assert "garbling_scheme" not in AXES
    candidate = next(iter_candidates(spec))
    assert "garbling_scheme" not in candidate.to_dict()
    assert candidate.protocol_config().garbling_scheme == "halfgates"
    assert "halfgates" not in candidate.describe()
