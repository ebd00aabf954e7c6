"""Unit tests for ``scripts/perf_pair.py`` (the paired-run protocol's arithmetic).

The benchmark itself is not run here — ``make ci`` has ``perfbench --smoke``
for that; these pin the pieces a perf claim is read from: quartiles, the
pairs-won rule (ties count for neither side, direction per metric), the
export of a pycache-free working tree, and that nothing is recorded.
"""

import importlib.util
from pathlib import Path

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


def test_working_tree_export_is_pycache_free_and_complete(tmp_path):
    target = tmp_path / "change"
    perf_pair.export_working_tree(target)
    assert (target / "perfbench" / "__main__.py").is_file()
    assert (target / "src" / "repro" / "crypto" / "otext.py").is_file()
    assert (target / "scripts" / "perf_pair.py").is_file()
    assert not list(target.rglob("__pycache__"))
    assert not (target / ".git").exists()


def test_the_script_never_asks_perfbench_to_record():
    source = (REPO_ROOT / "scripts" / "perf_pair.py").read_text()
    assert '"--record"' not in source
