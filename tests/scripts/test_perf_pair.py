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
