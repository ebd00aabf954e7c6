"""Command line of the benchmark.

Two shapes share one entry point:

* the benchmark contract's single run —
  ``python -m perfbench --workload NAME --seed N --seconds S --trace 0|1`` —
  which prints the run's metrics and, as its last line, one JSON object;
* the full set — ``python -m perfbench`` — which runs that command for
  every workload and round, prints every metric by name with unit and
  sample count, the per-layer table of the traced runs, writes the result
  JSON and exits non-zero on any correctness-gate miss.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence

from . import suite
from .driver import ROOT, build_setup, run_once
from .workloads import (
    ROUNDS,
    RUN_SECONDS,
    SMOKE_ROUNDS,
    SMOKE_SECONDS,
    WORKLOADS,
    benchmark_json,
    workload_named,
)

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run this workload once (the benchmark contract's shape)")
    parser.add_argument("--seed", type=int, default=2020,
                        help="feeds ProtocolConfig.seed and the window stride's phase")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"how long one run measures (default {RUN_SECONDS}; "
                             f"{SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run instead")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long set: 128-bit keys, <= 6 windows, in-process")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two full sets and require them to agree within the bounds")
    parser.add_argument("--record", action="store_true",
                        help="append the set's end-to-end table to perfbench/history.jsonl")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from perfbench/workloads.py and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def _single_run(arguments: argparse.Namespace) -> int:
    workload = workload_named(arguments.workload)
    if arguments.smoke:
        workload = workload.smoke()
    seconds = arguments.seconds if arguments.seconds is not None else RUN_SECONDS
    result = run_once(workload, arguments.seed, seconds, bool(arguments.trace), arguments.smoke)
    print(f"{result.workload} seed {result.seed} trace {int(result.trace)}: "
          f"{result.attempted} windows attempted, {result.failed} failed")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<36} {value:>16.9g} {unit}")
    for failure in result.detail.get("failures", []):
        print(f"  FAILED {failure}")
    print(suite.DETAIL_PREFIX + json.dumps(result.detail))
    print(result.result_line())
    return 0 if result.correct else 1


def _full_set(arguments: argparse.Namespace) -> int:
    smoke = arguments.smoke
    seconds = arguments.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if smoke else RUN_SECONDS
    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    document = suite.run_set(arguments.seed, seconds, rounds, smoke)
    suite.print_set(document)
    ok = not document["gate_misses"]
    if arguments.check_repeat:
        second = suite.run_set(arguments.seed, seconds, rounds, smoke)
        suite.print_set(second)
        ok &= not second["gate_misses"]
        ok &= suite.compare_sets(document, second)
    print(f"result written to {suite.write_result(document)}")
    if arguments.record:
        print(f"history line appended: {json.dumps(suite.record_history(document))}")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = _parser().parse_args(argv)
    if arguments.write_benchmark_json:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
        return 0
    if arguments.setup_probe:
        build_setup(workload_named(arguments.workload), arguments.seed)
        return 0
    if arguments.workload is not None:
        return _single_run(arguments)
    return _full_set(arguments)
