"""Smoke test of the perfbench benchmark (tier-1, seconds long).

Runs ``python -m perfbench --smoke`` — every workload, two rounds plus a
traced run each, at 128-bit keys and at most six windows — and checks that
what it emits is what ``perfbench/workloads.py`` declares, and that
``BENCHMARK.json`` is that same declaration.  No timing is asserted.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke_result():
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads((ROOT / "perfbench" / "out" / "result-smoke.json").read_text())


def test_benchmark_json_is_the_declaration():
    declared = benchmark_json()
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == declared
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in declared[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in declared["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_every_workload_emits_every_declared_metric(smoke_result):
    assert smoke_result["gate_misses"] == []
    assert set(smoke_result["workloads"]) == {w.name for w in WORKLOADS}
    for name, entry in smoke_result["workloads"].items():
        assert entry["failed"] == 0 and entry["failed_window_share"] == 0, name
        assert set(entry["end_to_end"]) == {m.name for m in END_TO_END}, name
        for metric in END_TO_END:
            cell = entry["end_to_end"][metric.name]
            assert cell["unit"] == metric.unit
            # End-to-end metrics are never 0 (a 0 has no relative bound).
            assert math.isfinite(cell["value"]) and cell["value"] > 0, (name, metric.name)
        assert set(entry["per_layer"]) == {m.name for m in PER_LAYER}, name
        for metric in PER_LAYER:
            cell = entry["per_layer"][metric.name]
            assert cell["unit"] == metric.unit
            assert math.isfinite(cell["value"]), (name, metric.name)
            if metric.name != "trace.overhead_share":
                assert cell["value"] >= 0, (name, metric.name)


def test_self_times_fit_inside_the_window_span(smoke_result):
    # Spans that open inside run_window: the protocol phases and the crypto
    # and net calls under them.  (core.replay, net.transport.open, the
    # pipeline's advance and settlement run beside it; reserve() on the
    # stage thread.)
    nested = [
        m.name
        for m in PER_LAYER
        if m.scope == "window"
        and m.name.endswith(".self_s")
        and m.name.startswith(("protocols.", "crypto.", "net."))
        and ".reserve." not in m.name
        and m.name != "net.transport.open.self_s"
    ]
    for name, entry in smoke_result["workloads"].items():
        per_layer = entry["per_layer"]
        total = per_layer["protocols.window.total_s"]["value"]
        assert total > 0, name
        # Each name is its median pass, so the sum may stray from the total's median.
        assert sum(per_layer[n]["value"] for n in nested) <= total * 1.10, name


def test_traced_spans_are_written_as_jsonl(smoke_result):
    for name, entry in smoke_result["workloads"].items():
        lines = (ROOT / entry["spans_file"]).read_text().splitlines()
        assert lines, name
        by_id = {}
        for line in lines[:2000]:
            span = json.loads(line)
            assert set(span) == {"id", "parent", "name", "start", "end", "self_s", "thread", "trace"}
            assert span["end"] >= span["start"] and span["self_s"] >= -1e-9
            assert span["trace"]["workload"] == name
            by_id[span["id"]] = span
        assert any(span["name"] == "protocols.window" for span in by_id.values()), name


@pytest.mark.parametrize("failing_calls, timed", [({3}, True), (range(2, 10**6), False)])
def test_a_window_that_raises_is_reported_not_crashed_on(monkeypatch, failing_calls, timed):
    from perfbench import driver
    from perfbench.workloads import workload_named
    from repro.core.protocols import PrivateTradingEngine

    run_window, calls = PrivateTradingEngine.run_window, []

    def flaky(self, *args, **kwargs):
        calls.append(None)
        if len(calls) in failing_calls:  # call 1 is the warm-up window
            raise RuntimeError("injected")
        return run_window(self, *args, **kwargs)

    monkeypatch.setattr(PrivateTradingEngine, "run_window", flaky)
    workload = workload_named("live_gc_128").smoke()
    for trace in (False, True):
        calls.clear()
        result = driver.run_once(workload, seed=7, seconds=0.3, trace=trace, smoke=True)
        assert result.failed >= 1 and not result.correct
        assert "injected" in result.detail["failures"][0]
        # Metrics come from the complete passes only; with none there are none.
        assert bool(result.metrics) == timed
        assert all(math.isfinite(value) for value, _ in result.metrics.values())
