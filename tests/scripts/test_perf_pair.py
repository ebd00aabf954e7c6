"""Unit tests for ``scripts/perf_pair.py`` (the paired-run protocol's arithmetic).

The benchmark itself is not run here — ``make ci`` has ``perfbench --smoke``
for that; these pin the pieces a perf claim is read from: quartiles, the
pairs-won rule (ties count for neither side, direction per metric), the
export of a pycache-free working tree, and that nothing is recorded.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "perf_pair", REPO_ROOT / "scripts" / "perf_pair.py"
)
perf_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pair)


def _run(seed, parent, change, bytes_parent=100.0, bytes_change=100.0):
    def side(rate, size):
        return {
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {
                "windows_per_s": {"value": rate, "unit": "1/s"},
                "window_p50_s": {"value": 1.0 / rate, "unit": "s"},
                "bytes_per_window": {"value": size, "unit": "B"},
            },
        }

    return {"seed": seed, "parent": side(parent, bytes_parent), "change": side(change, bytes_change)}


def test_quartiles_are_inclusive_and_handle_one_run():
    assert perf_pair.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert perf_pair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_pairs_won_respects_direction_and_ties():
    parent, change = [10.0, 10.0, 10.0, 10.0], [12.0, 9.0, 10.0, 11.0]
    assert perf_pair.pairs_won(parent, change, "higher") == (2, 1)
    assert perf_pair.pairs_won(parent, change, "lower") == (1, 1)


def test_summary_reports_every_metric_with_wins_and_spread():
    runs = [_run(11, 60.0, 105.0), _run(12, 58.0, 99.0), _run(13, 62.0, 107.0)]
    better = {"windows_per_s": "higher", "window_p50_s": "lower", "bytes_per_window": "lower"}
    lines = dict(line.split(None, 1) for line in perf_pair.summarize(runs, better))
    assert set(lines) == set(better)
    assert "won 3/3 (tied 0)" in lines["windows_per_s"]
    assert "beyond parent IQR: yes" in lines["windows_per_s"]
    assert "change/parent 1.750x" in lines["windows_per_s"]
    assert "won 3/3" in lines["window_p50_s"]  # lower is better there
    assert "won 0/3 (tied 3)" in lines["bytes_per_window"]


def test_bytes_mismatch_is_reported_per_seed():
    runs = [_run(11, 60.0, 105.0), _run(12, 58.0, 99.0, bytes_change=101.0)]
    assert perf_pair.bytes_mismatches(runs) == [12]
    assert perf_pair.bytes_mismatches(runs[:1]) == []


_DECLARED = {
    "end_to_end": [
        {"name": "windows_per_s", "better": "higher", "bound": 0.2},
        {"name": "window_p50_s", "better": "lower", "bound": 0.2},
        {"name": "bytes_per_window", "better": "lower", "bound": 0.05},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},  # not in these runs
    ]
}


def test_claim_rule_is_nine_tenths_of_the_pairs_and_beyond_the_parent_iqr():
    won_all = [_run(seed, 20.0 + seed / 10, 26.0) for seed in range(10)]
    met, sentence = perf_pair.claim_verdict(won_all, "windows_per_s", "higher")
    assert met and "won 10/10" in sentence and sentence.endswith(": met")
    lost_two = won_all[:8] + [_run(8, 20.0, 19.0), _run(9, 20.0, 19.5)]
    assert not perf_pair.claim_verdict(lost_two, "windows_per_s", "higher")[0]
    # Every pair won, but by less than the parent's own quartile distance.
    inside = [_run(seed, 20.0 + seed, 20.5 + seed) for seed in range(10)]
    met, sentence = perf_pair.claim_verdict(inside, "windows_per_s", "higher")
    assert not met and "won 10/10" in sentence and "NOT met" in sentence
    # Lower-is-better metrics read the other way.
    assert perf_pair.claim_verdict(won_all, "window_p50_s", "lower")[0]


def _not_inside(runs):
    statuses = perf_pair.bound_statuses(runs, _DECLARED["end_to_end"])
    return {name: status for name, status in statuses.items() if status != "inside"}


def test_controls_are_held_to_the_declared_bounds():
    flat = [_run(11, 60.0, 59.0), _run(12, 58.0, 61.0), _run(13, 62.0, 60.0)]
    assert _not_inside(flat) == {}
    slower = [_run(seed, 60.0, 45.0) for seed in (11, 12, 13)]  # -25 %, bound 20 %
    assert _not_inside(slower) == {"windows_per_s": "outside", "window_p50_s": "outside"}
    faster = [_run(seed, 60.0, 90.0) for seed in (11, 12, 13)]  # better is never outside
    assert _not_inside(faster) == {}
    fatter = [_run(seed, 60.0, 60.0, bytes_change=106.0) for seed in (11, 12)]
    assert _not_inside(fatter) == {"bytes_per_window": "outside"}
    # Only metrics present in the runs are judged (peak_rss_mb is declared, absent).
    assert set(perf_pair.bound_statuses(flat, _DECLARED["end_to_end"])) == {
        "windows_per_s", "window_p50_s", "bytes_per_window"
    }


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_dominated():
    # Parent quartiles 40..80 around a median of 60: a 67 % spread against a 20 % bound.
    wide = [40.0, 50.0, 60.0, 70.0, 80.0, 40.0, 80.0, 60.0]
    level = [_run(seed, rate, 60.0) for seed, rate in enumerate(wide)]
    assert _not_inside(level) == {"windows_per_s": "unresolved", "window_p50_s": "unresolved"}
    # A change median 30 % worse is still unresolved, not outside: the spread cannot tell.
    worse = [_run(seed, rate, 42.0) for seed, rate in enumerate(wide)]
    assert _not_inside(worse)["windows_per_s"] == "unresolved"
    # Every change run beating every parent run resolves it, in both directions.
    dominated = [_run(seed, rate, 81.0 + seed) for seed, rate in enumerate(wide)]
    assert _not_inside(dominated) == {}
    # One change run that does not beat the best parent run leaves it unresolved.
    almost = dominated[:-1] + [_run(7, 60.0, 79.0)]
    assert _not_inside(almost) == {"windows_per_s": "unresolved", "window_p50_s": "unresolved"}
    line = perf_pair.verdict({"live_gc_128": level}, "live_gc_128", "windows_per_s", _DECLARED)
    assert "inside bound: live_gc_128 unresolved (windows_per_s, window_p50_s);" in line


def test_failed_window_shares_are_compared_per_workload():
    steady = [_run(seed, 60.0, 61.0) for seed in (11, 12)]
    assert perf_pair.failed_shares(steady) == (0.0, 0.0)
    flaky = [_run(seed, 60.0, 61.0) for seed in (11, 12)]
    flaky[0]["change"]["failed"] = 1  # 1 of 20 change windows
    flaky[1]["parent"]["attempted"] = 30
    assert perf_pair.failed_shares(flaky) == (0.0, 0.05)
    line = perf_pair.verdict(
        {"live_gc_128": steady, "live_socket_128": flaky}, "live_gc_128", "windows_per_s", _DECLARED
    )
    assert line.endswith("failed-window share no larger: NO, live_socket_128 0.00% -> 5.00%")
    # Fewer failures on the change side is never flagged.
    for run in flaky:
        run["parent"]["failed"] = 3
    line = perf_pair.verdict({"live_socket_128": flaky}, "live_socket_128", "windows_per_s", _DECLARED)
    assert line.endswith("failed-window share no larger: yes")


def test_verdict_line_names_the_claim_the_controls_and_the_bytes():
    runs = {
        "live_gc_128": [_run(seed, 60.0, 59.5) for seed in (11, 12)],
        "live_socket_128": [_run(seed, 20.0 + seed / 10, 26.0) for seed in range(10)],
        "replay_sharded_512": [_run(11, 70.0, 50.0, bytes_change=101.0)],
    }
    line = perf_pair.verdict(runs, "live_socket_128", "windows_per_s", _DECLARED)
    assert line.startswith("verdict: claim live_socket_128 windows_per_s won 10/10")
    assert (
        ": met; inside bound: live_gc_128 yes, live_socket_128 yes, replay_sharded_512 NO ("
    ) in line
    assert "; bytes_per_window identical per seed: NO, replay_sharded_512 seeds [11]; " in line
    alone = perf_pair.verdict({"live_gc_128": runs["live_gc_128"]}, "live_gc_128", "windows_per_s", _DECLARED)
    assert alone.endswith(
        "NOT met; inside bound: live_gc_128 yes; bytes_per_window identical per seed: yes; "
        "failed-window share no larger: yes"
    )


def test_a_met_claim_still_flags_its_own_workload_outside_bound():
    # windows_per_s wins every pair, but the claimed workload's peak RSS
    # grows 10 % against a 5 % bound: the claim reads met, the bound NO.
    runs = [_run(seed, 20.0 + seed / 10, 26.0) for seed in range(10)]
    for run in runs:
        run["parent"]["metrics"]["peak_rss_mb"] = {"value": 100.0, "unit": "MiB"}
        run["change"]["metrics"]["peak_rss_mb"] = {"value": 110.0, "unit": "MiB"}
    line = perf_pair.verdict({"live_socket_128": runs}, "live_socket_128", "windows_per_s", _DECLARED)
    assert ": met; inside bound: live_socket_128 NO (peak_rss_mb);" in line


def test_workload_list_all_and_claim_are_parsed_before_anything_runs(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(perf_pair, "export_parent", lambda rev, target: None)
    monkeypatch.setattr(perf_pair, "export_working_tree", lambda target: None)

    def fake_benchmark(tree, workload, seed, seconds, trace):
        ran.append((tree.name, workload, seed))
        return _run(seed, 20.0, 26.0)["change" if tree.name == "change" else "parent"]

    monkeypatch.setattr(perf_pair, "run_benchmark", fake_benchmark)
    assert perf_pair.main(
        ["--workload", "all", "--claim", "live_socket_128", "--pairs", "4",
         "--control-pairs", "2", "--seeds", "5,6", "--parent", "HEAD"]
    ) == 0
    by_workload = {}
    for side, workload, seed in ran:
        by_workload.setdefault(workload, []).append((side, seed))
    assert list(by_workload) == [
        "live_paillier_1024", "live_gc_128", "live_socket_128", "replay_sharded_512"
    ]
    # Sides alternate within each workload; seeds cycle; the claim gets --pairs.
    assert by_workload["live_socket_128"] == [
        ("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
        ("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
    ]
    assert by_workload["live_gc_128"] == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6)]
    out = capsys.readouterr().out
    assert out.count("pairs, parent=HEAD") == 4  # one table per workload
    assert out.strip().splitlines()[-1].startswith("verdict: claim live_socket_128 windows_per_s")


def test_a_traced_pair_prints_its_table_and_no_verdict(monkeypatch, capsys):
    """``--trace 1`` runs report per-layer metrics only: nothing to read a claim from."""
    monkeypatch.setattr(perf_pair, "export_parent", lambda rev, target: None)
    monkeypatch.setattr(perf_pair, "export_working_tree", lambda target: None)
    traced = {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {"net.send.calls": {"value": 2092.5, "unit": "count"}},
    }  # fmt: skip
    monkeypatch.setattr(perf_pair, "run_benchmark", lambda *args: traced)
    assert perf_pair.main(["--workload", "live_socket_128", "--pairs", "1", "--trace", "1"]) == 0
    out = capsys.readouterr().out
    assert "net.send.calls" in out and "verdict" not in out


def _traced(seed, parent_counts, change_counts):
    """A traced pair whose sides differ in ``core.replay.self_s`` (never exact)."""

    def side(counts, replay_s):
        metrics = {name: {"value": value, "unit": "count"} for name, value in counts.items()}
        metrics["core.replay.self_s"] = {"value": replay_s, "unit": "s"}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    return {"seed": seed, "parent": side(parent_counts, 0.008), "change": side(change_counts, 0.003)}


def test_exact_counts_are_read_from_the_perfbench_declarations():
    names = perf_pair.exact_metric_names()
    assert {"core.replay.calls", "net.send.calls", "net.messages", "net.bytes"} <= set(names)
    # Timings, run-scoped counts and thread-timed counts are not exact.
    assert not {"core.replay.self_s", "crypto.keygen.calls", "crypto.accel.claimed"} & set(names)


def test_traced_pairs_compare_every_exact_count_per_seed():
    names = ["core.replay.calls", "net.bytes"]
    same = {"core.replay.calls": 75.5, "net.bytes": 9000.0}
    runs = [_traced(7, same, dict(same)), _traced(8, same, dict(same))]
    assert perf_pair.exact_mismatches(runs, names) == {}
    assert perf_pair.describe_exact(runs, names) == "exact counts equal per seed: yes"
    runs.append(_traced(9, same, {**same, "net.bytes": 9001.0}))
    runs.append(_traced(10, same, {"core.replay.calls": 75.5}))  # a count gone missing
    assert perf_pair.exact_mismatches(runs, names) == {"net.bytes": [9, 10]}
    assert perf_pair.describe_exact(runs, names) == (
        "exact counts equal per seed: NO, net.bytes seeds [9, 10]"
    )


def test_a_traced_pair_prints_the_exact_count_line(monkeypatch, capsys):
    monkeypatch.setattr(perf_pair, "export_parent", lambda rev, target: None)
    monkeypatch.setattr(perf_pair, "export_working_tree", lambda target: None)
    counts = {"core.replay.calls": 75.5, "net.messages": 2092.5}

    def fake_benchmark(tree, workload, seed, seconds, trace):
        changed = {**counts, "net.messages": 2093.0} if tree.name == "change" and seed == 8 else counts
        return _traced(seed, counts, changed)[tree.name]

    monkeypatch.setattr(perf_pair, "run_benchmark", fake_benchmark)
    args = ["--workload", "live_socket_128", "--pairs", "2", "--seeds", "7,8", "--trace", "1"]
    assert perf_pair.main(args) == 0
    assert "exact counts equal per seed: NO, net.messages seeds [8]" in capsys.readouterr().out
    monkeypatch.setattr(perf_pair, "run_benchmark", lambda tree, *rest: _traced(7, counts, counts)[tree.name])
    assert perf_pair.main(args) == 0
    assert "exact counts equal per seed: yes" in capsys.readouterr().out


def test_working_tree_export_is_pycache_free_and_complete(tmp_path):
    target = tmp_path / "change"
    perf_pair.export_working_tree(target)
    assert (target / "perfbench" / "__main__.py").is_file()
    assert (target / "src" / "repro" / "crypto" / "otext.py").is_file()
    assert (target / "scripts" / "perf_pair.py").is_file()
    assert not list(target.rglob("__pycache__"))
    assert not (target / ".git").exists()


def test_the_script_never_asks_perfbench_to_record(monkeypatch, tmp_path):
    """``--record`` writes the script's own ledger; perfbench is only ever called."""
    commands = []
    printed = "\n".join(
        [
            "live_gc_128 seed 7 trace 0: 4 windows attempted, 0 failed",
            'detail {"host_reference_s": 0.0019, "host_slowdown_share": 0.1}',
            '{"correct": true, "attempted": 4, "failed": 0, "metrics": {}}',
        ]
    )

    def fake_run(command, **kwargs):
        commands.append(command)
        return perf_pair.subprocess.CompletedProcess(command, 0, stdout=printed)

    monkeypatch.setattr(perf_pair.subprocess, "run", fake_run)
    result = perf_pair.run_benchmark(tmp_path, "live_gc_128", 7, 20.0, 0)
    assert commands and "--record" not in commands[0]
    assert commands[0][1:3] == ["-m", "perfbench"]
    assert result["detail"] == {"host_reference_s": 0.0019, "host_slowdown_share": 0.1}
    assert result["attempted"] == 4


def test_a_bytes_claim_reports_the_change_per_seed_instead_of_a_mismatch():
    # Seeds 81..84, each run twice: 8 % fewer bytes on every pair.
    smaller = [
        _run(seed, 30.0, 33.0, bytes_parent=1000.0 + seed, bytes_change=920.0 + seed)
        for seed in (81, 82, 83, 84) * 2
    ]
    assert perf_pair.bytes_deltas(smaller) == [(81, -80.0), (82, -80.0), (83, -80.0), (84, -80.0)]
    assert perf_pair.describe_bytes(smaller, claimed=True) == (
        "bytes_per_window change per seed: 81 -80, 82 -80, 83 -80, 84 -80"
    )
    assert perf_pair.describe_bytes(smaller, claimed=False) == (
        "bytes_per_window identical per seed: NO, seeds [81, 82, 83, 84]"
    )
    level = [_run(seed, 60.0, 60.0) for seed in (11, 12)]
    assert perf_pair.describe_bytes(level, claimed=False) == "bytes_per_window identical per seed: yes"
    runs = {"live_socket_128": smaller, "live_gc_128": level}
    line = perf_pair.verdict(runs, "live_socket_128", "bytes_per_window", _DECLARED)
    assert line.startswith("verdict: claim live_socket_128 bytes_per_window won 8/8, ")
    assert ": met; inside bound: live_socket_128 yes, live_gc_128 yes; " in line
    assert (
        "; bytes_per_window change per seed: live_socket_128 81 -80, 82 -80, 83 -80, 84 -80; "
        "live_gc_128 11 +0, 12 +0; failed-window share no larger: yes"
    ) in line
    assert "identical per seed" not in line
    # The same runs read as a throughput claim still flag the bytes.
    line = perf_pair.verdict(runs, "live_socket_128", "windows_per_s", _DECLARED)
    assert "; bytes_per_window identical per seed: NO, live_socket_128 seeds [81, 82, 83, 84]; " in line


def test_metric_flag_picks_the_claimed_metric_and_defaults_to_throughput(monkeypatch, capsys):
    monkeypatch.setattr(perf_pair, "export_parent", lambda rev, target: None)
    monkeypatch.setattr(perf_pair, "export_working_tree", lambda target: None)

    def fake_benchmark(tree, workload, seed, seconds, trace):
        run = _run(seed, 20.0, 21.0, bytes_parent=500.0, bytes_change=460.0)
        return run["change" if tree.name == "change" else "parent"]

    monkeypatch.setattr(perf_pair, "run_benchmark", fake_benchmark)
    args = ["--workload", "live_socket_128", "--pairs", "2", "--seeds", "81,82"]
    assert perf_pair.main(args + ["--metric", "bytes_per_window"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert "bytes_per_window change per seed: 81 -40, 82 -40" in out
    assert out[-1].startswith("verdict: claim live_socket_128 bytes_per_window won 2/2")
    assert "bytes_per_window change per seed: live_socket_128 81 -40, 82 -40;" in out[-1]
    assert perf_pair.main(args) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert "bytes_per_window identical per seed: NO, seeds [81, 82]" in out
    assert out[-1].startswith("verdict: claim live_socket_128 windows_per_s won 2/2")


def test_metric_flag_accepts_only_a_declared_end_to_end_metric(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(perf_pair, "export_parent", lambda rev, target: ran.append(rev))
    for name in ("bytes", "net.bytes"):  # unknown; per-layer, not end-to-end
        with pytest.raises(SystemExit):
            perf_pair.main(["--workload", "live_socket_128", "--metric", name])
        assert f"--metric {name} is not an end-to-end metric" in capsys.readouterr().err
    assert ran == []


# -- the ledger: --record ---------------------------------------------------------------


def _with_host(run, parent_reference, change_reference):
    run["parent"]["detail"] = {"host_reference_s": parent_reference, "host_slowdown_share": 0.0}
    run["change"]["detail"] = {"host_reference_s": change_reference, "host_slowdown_share": 0.5}
    return run


_REVISIONS = {"commit": "abc1234", "dirty": True, "parent": "abc1234"}
_TIER1 = {"passed": 2240, "wall_s": 250.0}


def _line(workload, runs, **overrides):
    arguments = dict(
        role="claim", metric="bytes_per_window",
        better={"windows_per_s": "higher", "window_p50_s": "lower", "bytes_per_window": "lower"},
        exact_names=["net.bytes", "net.messages"], revisions=_REVISIONS,
        seconds=20.0, trace=0, tier1=_TIER1,
    )  # fmt: skip
    arguments.update(overrides)
    return perf_pair.ledger_line(workload, runs, **arguments)


def test_a_ledger_line_holds_the_series_as_data():
    runs = [
        _with_host(_run(41, 400.0, 420.0, bytes_parent=43294.9, bytes_change=27038.9), 0.002, 0.003),
        _with_host(_run(42, 410.0, 430.0, bytes_parent=43300.9, bytes_change=27044.9), 0.004, 0.005),
    ]
    line = _line("live_gc_128", runs)
    assert set(line) == {
        "date", "commit", "dirty", "parent", "workload", "role", "metric", "seeds",
        "seconds", "trace", "metrics", "identity", "host", "failed_share", "tier1",
    }  # fmt: skip
    assert (line["commit"], line["dirty"], line["parent"]) == ("abc1234", True, "abc1234")
    assert (line["workload"], line["role"], line["metric"]) == ("live_gc_128", "claim", "bytes_per_window")
    assert line["seeds"] == [41, 42] and line["tier1"] == _TIER1
    rate = line["metrics"]["windows_per_s"]
    assert rate == {
        "parent_median": 405.0, "parent_iqr": 5.0, "change_median": 425.0, "change_iqr": 5.0,
        "won": 2, "tied": 0,
    }  # fmt: skip
    assert line["metrics"]["bytes_per_window"]["won"] == 2
    assert line["identity"] == {
        "bytes_metric": "bytes_per_window",
        "bytes_delta_per_seed": {"41": pytest.approx(-16256.0), "42": pytest.approx(-16256.0)},
        "exact_counts_differing": {},
    }
    assert line["host"] == {
        "parent": {"host_reference_s": 0.003, "host_slowdown_share": 0.0},
        "change": {"host_reference_s": 0.004, "host_slowdown_share": 0.5},
    }
    assert line["failed_share"] == {"parent": 0.0, "change": 0.0}
    json.loads(json.dumps(line))  # one JSON line, as written


def test_a_ledger_line_reads_identical_bytes_and_counts_as_one_phrase():
    level = [_run(seed, 60.0, 61.0) for seed in (11, 12)]
    line = _line("live_socket_128", level, role="control")
    assert line["identity"] == "bytes and exact counts identical"
    assert line["host"]["parent"] == {"host_reference_s": None, "host_slowdown_share": None}
    # A traced pair reads its bytes off net.bytes and names each exact count that moved.
    counts = {"net.bytes": 9000.0, "net.messages": 2092.5}
    same = [_traced(7, counts, dict(counts))]
    assert _line("live_gc_128", same, trace=1)["identity"] == "bytes and exact counts identical"
    moved = [_traced(7, counts, {"net.bytes": 8000.0, "net.messages": 2093.0})]
    assert _line("live_gc_128", moved, trace=1)["identity"] == {
        "bytes_metric": "net.bytes",
        "bytes_delta_per_seed": {"7": -1000.0},
        "exact_counts_differing": {"net.messages": [7]},
    }


def test_record_appends_one_line_per_workload_and_needs_the_tier1_figures(
    monkeypatch, tmp_path, capsys
):
    ledger = tmp_path / "BENCH_history.jsonl"
    ledger.write_text('{"earlier": true}\n')
    monkeypatch.setattr(perf_pair, "LEDGER_PATH", ledger)
    monkeypatch.setattr(perf_pair, "export_parent", lambda rev, target: None)
    monkeypatch.setattr(perf_pair, "export_working_tree", lambda target: None)
    monkeypatch.setattr(perf_pair, "git_revision", lambda rev: {"HEAD": "c0ffee1"}.get(rev, "beef002"))
    monkeypatch.setattr(perf_pair, "working_tree_dirty", lambda: False)
    monkeypatch.setattr(
        perf_pair, "run_benchmark",
        lambda tree, workload, seed, *rest: _run(seed, 20.0, 26.0)[tree.name],
    )  # fmt: skip
    args = ["--workload", "live_gc_128,live_socket_128", "--claim", "live_socket_128",
            "--pairs", "2", "--parent", "HEAD~1", "--record"]  # fmt: skip
    with pytest.raises(SystemExit):
        perf_pair.main(args)
    assert "--record needs --tier1-passed and --tier1-wall-s" in capsys.readouterr().err
    assert perf_pair.main(args + ["--tier1-passed", "2240", "--tier1-wall-s", "251.5"]) == 0
    lines = [json.loads(text) for text in ledger.read_text().splitlines()]
    assert lines[0] == {"earlier": True}  # appended, never rewritten
    assert [(line["workload"], line["role"]) for line in lines[1:]] == [
        ("live_gc_128", "control"), ("live_socket_128", "claim")
    ]
    assert all(line["commit"] == "c0ffee1" and line["parent"] == "beef002" for line in lines[1:])
    assert lines[2]["tier1"] == {"passed": 2240, "wall_s": 251.5}
    assert lines[2]["metric"] == "windows_per_s"
    assert "recorded 2 lines in BENCH_history.jsonl" in capsys.readouterr().out
