#!/usr/bin/env python
"""Validate the structure of ``BENCH_crypto.json`` (part of `make docs-check`).

The benchmark report is the repo's PR-over-PR performance ledger; several
documents and the roadmap reference its sections by name.  This check keeps
a regenerated file honest:

* top-level keys: ``scale``, ``machine``, ``datetime``, ``benchmarks``,
  ``speedups`` — with every benchmark entry carrying ``mean_s`` /
  ``stddev_s`` / ``rounds``;
* the ``parallel_runner`` section (when present) must certify
  ``results_identical`` and carry both clocks;
* the ``comparison`` section (added with the offline garbled-comparison
  pipeline) must exist, certify ``outcomes_match`` per bit width, and show
  an online simulated-seconds reduction of at least the documented 3x;
* the ``garbling`` section (added with the pluggable garbling schemes)
  must exist, certify ``outcomes_match`` per bit width and per-scheme
  shard invariance at workers 1/2/4 plus cross-scheme economic identity,
  and show halfgates beating classic by at least 1.8x on garbled-table
  bytes (measured ~2.6x); the measured garble wall-clock ratio is
  recorded but not gated — since PR 16 classic rows are one big-int XOR
  each, so the ratio is the schemes' hash-count ratio (~1.2x), which is
  inside this host's run-to-run noise;
* the ``multiexp`` section must exist, certify ``matches_pow`` for the
  fixed-base comb against the builtin ``pow`` oracle, and name the active
  bigint backend — the speedup is recorded but deliberately not gated
  (the win is amortization);
* the ``aggregation_topology`` section (added with the topology
  subsystem) must exist, certify ``sums_identical`` per requester count
  and shard invariance per topology at workers 1/2/4, and show the
  binary tree beating the chain by at least 2x at the largest requester
  count (the measured value is ~10x at n=128);
* the ``session_reuse`` section (added with the persistent Session API)
  must exist, certify ``economics_identical`` between window and day
  scope, day-scope shard invariance at workers 1/2/4,
  ``socket_transport_identical`` (the SocketTransport day run must be
  bit-identical to LocalTransport), and show a day-scope simulated-day
  speedup of at least 2x (the measured value is ~4x at 6 windows);
* the ``pipelining`` section (added with the window-pipelined scheduler)
  must exist, certify bit-identity of the pipelined day against the
  unpipelined day at workers 1/2/4 over both transports
  (``identical_by_workers`` / ``socket_identical_by_workers``) and under
  the tree topology, certify the chaos-seeded pipelined day recovered to
  the bit-identical clean day (``chaos_recovered`` /
  ``chaos_recovered_identical`` — a retried window must not consume its
  successor's pre-staged material), and show a pipelined simulated-day
  speedup of at least 1.3x whenever at least 6 windows were sampled
  (the anchor's un-hideable offline phase dominates shorter days);
* the ``planner`` section (added with the deployment planner) must
  exist, carry at least three fleet regimes each certifying
  ``oracle_match`` (branch-and-bound == exhaustive-enumeration argmin)
  and a planned-vs-naive predicted speedup strictly above 1.0x, and an
  ``executed`` certificate whose planned deployment ran a real day
  economically identical to the naive default with a measured speedup
  strictly above 1.0x (see ``docs/PLANNER.md``);
* the ``chaos`` section (added with the chaos engine + recovery
  supervisor) must exist, inject at least one fault, certify every
  survival-matrix cell (transport x session-scope x workers 1/2/4) as
  ``recovered`` and ``recovered_identical`` (a recovered chaos run is
  bit-identical to the fault-free day), hold a ``recovery_rate`` of 1.0,
  keep ``retry_overhead`` within the supervisor's budget
  (``max_attempts - 1`` extra attempts per window), and certify
  ``tamper_fail_closed`` + ``tamper_incident_classified`` (tampered GC
  material aborts with an attributable integrity_violation — the
  zero-silent-wrong-answer gate; see ``docs/CHAOS.md``).

Exits non-zero with a list of problems, so it can gate CI.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_crypto.json"

#: Minimum online simulated-seconds reduction the pooled comparison must
#: show over the classic inline path (the PR's acceptance floor).
MIN_COMPARISON_REDUCTION = 3.0

_PARALLEL_REQUIRED = (
    "workers",
    "host_cpu_count",
    "results_identical",
    "pool_fallbacks",
    "simulated_day_seconds_serial",
    "simulated_day_seconds_parallel",
    "simulated_speedup",
    "wall_seconds_serial",
    "wall_seconds_parallel",
)

#: Minimum tree:2-vs-chain simulated speedup at the largest requester
#: count (conservative floor; the expected value is ~n / log2(n)).
MIN_TREE_SPEEDUP = 2.0

#: per-topology keys required inside each requester entry.
_TOPOLOGY_ENTRY_REQUIRED = ("simulated_seconds", "critical_path_rounds", "hops")

#: Minimum day-scope-vs-window-scope simulated day speedup the session
#: amortization must show (conservative floor; the fixed setup dominates
#: small days, so the measured value is well above this).
MIN_SESSION_SPEEDUP = 2.0

_SESSION_REQUIRED = (
    "home_count",
    "windows_executed",
    "simulated_day_seconds_window_scope",
    "simulated_day_seconds_day_scope",
    "session_reuse_speedup",
    "gc_offline_seconds_window_scope",
    "gc_offline_seconds_day_scope",
    "economics_identical",
    "sessions_established",
    "sessions_reused",
    "shard_invariance",
    "socket_transport_identical",
)

#: Minimum halfgates-vs-classic garbled-table-bytes reduction (the
#: asymptotic value for the lowered comparator is ~2.7x; 1.8x is the
#: conservative acceptance floor).
MIN_TABLE_BYTES_REDUCTION = 1.8

_GARBLING_SCHEME_REQUIRED = (
    "table_bytes",
    "garble_wall_seconds",
    "and_gate_count",
    "gate_histogram",
)

_GARBLING_WIDTH_REQUIRED = (
    "outcomes_match",
    "samples",
    "original_gate_histogram",
    "table_bytes_reduction",
    "garble_time_reduction",
)

_MULTIEXP_PRIMITIVES = ("fixed_base_comb",)

_MULTIEXP_ENTRY_REQUIRED = (
    "matches_pow",
    "pow_seconds",
    "seconds",
    "speedup_vs_pow",
)

_COMPARISON_REQUIRED = (
    "and_gate_count",
    "ot_count",
    "base_ot_count",
    "simulated_online_seconds_before",
    "simulated_online_seconds_after",
    "simulated_online_reduction",
    "simulated_offline_seconds_per_instance",
    "outcomes_match",
)


def _check_benchmarks(report: dict, problems: list) -> None:
    benches = report.get("benchmarks")
    if not isinstance(benches, dict) or not benches:
        problems.append("missing or empty 'benchmarks' section")
        return
    for group, by_param in benches.items():
        if not isinstance(by_param, dict) or not by_param:
            problems.append(f"benchmarks[{group!r}] is not a non-empty mapping")
            continue
        for param, stats in by_param.items():
            for key in ("mean_s", "stddev_s", "rounds"):
                if key not in stats:
                    problems.append(f"benchmarks[{group!r}][{param!r}] lacks {key!r}")


def _check_parallel(report: dict, problems: list) -> None:
    parallel = report.get("parallel_runner")
    if parallel is None:
        return  # optional (--skip-parallel runs)
    for key in _PARALLEL_REQUIRED:
        if key not in parallel:
            problems.append(f"parallel_runner lacks {key!r}")
    if parallel.get("results_identical") is not True:
        problems.append("parallel_runner.results_identical is not true")


def _check_comparison(report: dict, problems: list) -> None:
    comparison = report.get("comparison")
    if not isinstance(comparison, dict) or not comparison:
        problems.append("missing or empty 'comparison' section")
        return
    for bit_width, entry in comparison.items():
        for key in _COMPARISON_REQUIRED:
            if key not in entry:
                problems.append(f"comparison[{bit_width!r}] lacks {key!r}")
        if entry.get("outcomes_match") is not True:
            problems.append(f"comparison[{bit_width!r}].outcomes_match is not true")
        reduction = entry.get("simulated_online_reduction", 0.0)
        if not isinstance(reduction, (int, float)) or reduction < MIN_COMPARISON_REDUCTION:
            problems.append(
                f"comparison[{bit_width!r}] online reduction {reduction!r} is below "
                f"the documented {MIN_COMPARISON_REDUCTION}x floor"
            )


def _check_garbling(report: dict, problems: list) -> None:
    section = report.get("garbling")
    if not isinstance(section, dict) or not section:
        problems.append("missing or empty 'garbling' section")
        return
    widths = section.get("widths")
    if not isinstance(widths, dict) or not widths:
        problems.append("garbling lacks a non-empty 'widths' mapping")
    else:
        for bit_width, entry in widths.items():
            prefix = f"garbling.widths[{bit_width!r}]"
            for key in _GARBLING_WIDTH_REQUIRED:
                if key not in entry:
                    problems.append(f"{prefix} lacks {key!r}")
            for scheme in ("classic", "halfgates"):
                per_scheme = entry.get(scheme)
                if not isinstance(per_scheme, dict):
                    problems.append(f"{prefix} lacks the {scheme!r} scheme entry")
                    continue
                for key in _GARBLING_SCHEME_REQUIRED:
                    if key not in per_scheme:
                        problems.append(f"{prefix}[{scheme!r}] lacks {key!r}")
            if entry.get("outcomes_match") is not True:
                problems.append(f"{prefix}.outcomes_match is not true")
            bytes_reduction = entry.get("table_bytes_reduction", 0.0)
            if (
                not isinstance(bytes_reduction, (int, float))
                or bytes_reduction < MIN_TABLE_BYTES_REDUCTION
            ):
                problems.append(
                    f"{prefix} table-bytes reduction {bytes_reduction!r} is below "
                    f"the documented {MIN_TABLE_BYTES_REDUCTION}x floor"
                )
    invariance = section.get("shard_invariance")
    if not isinstance(invariance, dict) or not invariance:
        problems.append("garbling lacks a non-empty 'shard_invariance' mapping")
    else:
        for scheme, cert in invariance.items():
            identical = cert.get("identical")
            if not isinstance(identical, dict) or not identical:
                problems.append(
                    f"garbling.shard_invariance[{scheme!r}] lacks the "
                    f"per-worker 'identical' mapping"
                )
                continue
            for workers, ok in identical.items():
                if ok is not True:
                    problems.append(
                        f"garbling.shard_invariance[{scheme!r}] is not "
                        f"identical at workers={workers}"
                    )
    if section.get("economics_identical_across_schemes") is not True:
        problems.append("garbling.economics_identical_across_schemes is not true")


def _check_multiexp(report: dict, problems: list) -> None:
    section = report.get("multiexp")
    if not isinstance(section, dict) or not section:
        problems.append("missing or empty 'multiexp' section")
        return
    if not isinstance(section.get("backend"), str) or not section.get("backend"):
        problems.append("multiexp lacks a non-empty 'backend' identity string")
    for name in _MULTIEXP_PRIMITIVES:
        entry = section.get(name)
        if not isinstance(entry, dict):
            problems.append(f"multiexp lacks the {name!r} primitive entry")
            continue
        for key in _MULTIEXP_ENTRY_REQUIRED:
            if key not in entry:
                problems.append(f"multiexp[{name!r}] lacks {key!r}")
        if entry.get("matches_pow") is not True:
            problems.append(f"multiexp[{name!r}].matches_pow is not true")


def _check_aggregation_topology(report: dict, problems: list) -> None:
    section = report.get("aggregation_topology")
    if not isinstance(section, dict) or not section:
        problems.append("missing or empty 'aggregation_topology' section")
        return
    requesters = section.get("requesters")
    if not isinstance(requesters, dict) or not requesters:
        problems.append("aggregation_topology lacks a non-empty 'requesters' mapping")
    else:
        largest = max(requesters, key=int)
        for count, entry in requesters.items():
            prefix = f"aggregation_topology.requesters[{count!r}]"
            if entry.get("sums_identical") is not True:
                problems.append(f"{prefix}.sums_identical is not true")
            for topology in ("chain", "tree:2"):
                per_topology = entry.get(topology)
                if not isinstance(per_topology, dict):
                    problems.append(f"{prefix} lacks the {topology!r} topology entry")
                    continue
                for key in _TOPOLOGY_ENTRY_REQUIRED:
                    if key not in per_topology:
                        problems.append(f"{prefix}[{topology!r}] lacks {key!r}")
            speedup = entry.get("tree_vs_chain_speedup")
            if not isinstance(speedup, (int, float)):
                problems.append(f"{prefix} lacks a numeric 'tree_vs_chain_speedup'")
            elif count == largest and speedup < MIN_TREE_SPEEDUP:
                problems.append(
                    f"{prefix} tree speedup {speedup!r} is below the documented "
                    f"{MIN_TREE_SPEEDUP}x floor at the largest requester count"
                )
    invariance = section.get("shard_invariance")
    if not isinstance(invariance, dict) or not invariance:
        problems.append(
            "aggregation_topology lacks a non-empty 'shard_invariance' mapping"
        )
        return
    for topology, cert in invariance.items():
        identical = cert.get("identical")
        if not isinstance(identical, dict) or not identical:
            problems.append(
                f"aggregation_topology.shard_invariance[{topology!r}] lacks "
                f"the per-worker 'identical' mapping"
            )
            continue
        for workers, ok in identical.items():
            if ok is not True:
                problems.append(
                    f"aggregation_topology.shard_invariance[{topology!r}] is not "
                    f"identical at workers={workers}"
                )


def _check_session_reuse(report: dict, problems: list) -> None:
    section = report.get("session_reuse")
    if not isinstance(section, dict) or not section:
        problems.append("missing or empty 'session_reuse' section")
        return
    for key in _SESSION_REQUIRED:
        if key not in section:
            problems.append(f"session_reuse lacks {key!r}")
    if section.get("economics_identical") is not True:
        problems.append("session_reuse.economics_identical is not true")
    if section.get("socket_transport_identical") is not True:
        problems.append("session_reuse.socket_transport_identical is not true")
    speedup = section.get("session_reuse_speedup", 0.0)
    if not isinstance(speedup, (int, float)) or speedup < MIN_SESSION_SPEEDUP:
        problems.append(
            f"session_reuse speedup {speedup!r} is below the documented "
            f"{MIN_SESSION_SPEEDUP}x floor"
        )
    invariance = section.get("shard_invariance")
    if not isinstance(invariance, dict) or not invariance:
        problems.append("session_reuse lacks a non-empty 'shard_invariance' mapping")
        return
    for workers, ok in invariance.items():
        if ok is not True:
            problems.append(
                f"session_reuse is not shard-invariant at workers={workers}"
            )


#: Minimum pipelined-vs-unpipelined simulated day speedup, gated only at
#: days of at least MIN_PIPELINE_WINDOWS windows (matches the bench gate).
MIN_PIPELINE_SPEEDUP = 1.3
MIN_PIPELINE_WINDOWS = 6

_PIPELINING_REQUIRED = (
    "home_count",
    "windows_executed",
    "unpipelined_day_seconds",
    "pipelined_day_seconds",
    "pipeline_speedup",
    "hidden_offline_seconds",
    "overlap_eligible_seconds",
    "pipeline_reserved",
    "identical_by_workers",
    "socket_identical_by_workers",
    "tree_topology_identical",
    "chaos_incidents",
    "chaos_recovered",
    "chaos_recovered_identical",
)


def _check_pipelining(report: dict, problems: list) -> None:
    section = report.get("pipelining")
    if not isinstance(section, dict) or not section:
        problems.append("missing or empty 'pipelining' section")
        return
    for key in _PIPELINING_REQUIRED:
        if key not in section:
            problems.append(f"pipelining lacks {key!r}")
    for label in ("identical_by_workers", "socket_identical_by_workers"):
        identical = section.get(label)
        if not isinstance(identical, dict) or not identical:
            problems.append(f"pipelining lacks a non-empty {label!r} mapping")
            continue
        for workers, ok in identical.items():
            if ok is not True:
                problems.append(
                    f"pipelining.{label} is not identical at workers={workers} — "
                    "the pipelined day diverged from the unpipelined day"
                )
    if section.get("tree_topology_identical") is not True:
        problems.append("pipelining.tree_topology_identical is not true")
    if section.get("chaos_recovered") is not True:
        problems.append("pipelining.chaos_recovered is not true")
    if section.get("chaos_recovered_identical") is not True:
        problems.append(
            "pipelining.chaos_recovered_identical is not true — a retried "
            "window consumed or double-charged pre-staged successor material"
        )
    windows = section.get("windows_executed", 0)
    speedup = section.get("pipeline_speedup", 0.0)
    if not isinstance(speedup, (int, float)):
        problems.append("pipelining lacks a numeric 'pipeline_speedup'")
    elif (
        isinstance(windows, int)
        and windows >= MIN_PIPELINE_WINDOWS
        and speedup < MIN_PIPELINE_SPEEDUP
    ):
        problems.append(
            f"pipelining speedup {speedup!r} is below the documented "
            f"{MIN_PIPELINE_SPEEDUP}x floor at {windows} windows"
        )


_CHAOS_REQUIRED = (
    "home_count",
    "windows_executed",
    "chaos_seed",
    "max_attempts",
    "total_incidents",
    "recovery_rate",
    "retry_overhead",
    "tamper_fail_closed",
    "tamper_incident_classified",
    "matrix",
)

_CHAOS_CELL_REQUIRED = (
    "incidents",
    "worker_losses",
    "retried_attempts",
    "recovered",
    "recovered_identical",
)


def _check_chaos(report: dict, problems: list) -> None:
    section = report.get("chaos")
    if not isinstance(section, dict) or not section:
        problems.append("missing or empty 'chaos' section")
        return
    for key in _CHAOS_REQUIRED:
        if key not in section:
            problems.append(f"chaos lacks {key!r}")
    matrix = section.get("matrix")
    if not isinstance(matrix, dict) or not matrix:
        problems.append("chaos lacks a non-empty 'matrix' mapping")
    else:
        for name, cell in matrix.items():
            prefix = f"chaos.matrix[{name!r}]"
            for key in _CHAOS_CELL_REQUIRED:
                if key not in cell:
                    problems.append(f"{prefix} lacks {key!r}")
            if cell.get("recovered") is not True:
                problems.append(f"{prefix}.recovered is not true")
            if cell.get("recovered_identical") is not True:
                problems.append(
                    f"{prefix}.recovered_identical is not true — the recovered "
                    "chaos run diverged from the fault-free day"
                )
    total = section.get("total_incidents", 0)
    if not isinstance(total, int) or total < 1:
        problems.append(
            f"chaos.total_incidents {total!r} — the survival matrix must "
            "actually inject faults"
        )
    rate = section.get("recovery_rate", 0.0)
    if not isinstance(rate, (int, float)) or rate < 1.0:
        problems.append(
            f"chaos recovery rate {rate!r} is below the 1.0 floor (unrecovered "
            "incidents on completed runs)"
        )
    overhead = section.get("retry_overhead")
    budget = section.get("max_attempts", 1)
    if not isinstance(overhead, (int, float)):
        problems.append("chaos lacks a numeric 'retry_overhead'")
    elif isinstance(budget, int) and overhead > budget - 1:
        problems.append(
            f"chaos retry overhead {overhead!r} exceeds the supervisor budget "
            f"({budget - 1} extra attempts per window)"
        )
    if section.get("tamper_fail_closed") is not True:
        problems.append("chaos.tamper_fail_closed is not true")
    if section.get("tamper_incident_classified") is not True:
        problems.append("chaos.tamper_incident_classified is not true")


#: Minimum number of fleet regimes the planner sweep must cover.
MIN_PLANNER_REGIMES = 3
#: Planned-vs-naive speedups (predicted and measured) must strictly beat
#: the naive default.
MIN_PLANNER_SPEEDUP = 1.0

_PLANNER_REGIME_REQUIRED = (
    "hosts",
    "cores_per_host",
    "agents",
    "windows",
    "link",
    "naive_day_seconds",
    "planned_day_seconds",
    "speedup",
    "oracle_match",
    "candidates_evaluated",
    "candidates_pruned",
    "space_size",
    "planned",
)

_PLANNER_EXECUTED_REQUIRED = (
    "regime",
    "windows_executed",
    "economics_identical",
    "planned_day_seconds",
    "naive_day_seconds",
    "measured_speedup",
)


def _check_planner(report: dict, problems: list) -> None:
    section = report.get("planner")
    if not isinstance(section, dict) or not section:
        problems.append("missing or empty 'planner' section")
        return
    regimes = section.get("regimes")
    if not isinstance(regimes, dict) or len(regimes) < MIN_PLANNER_REGIMES:
        problems.append(
            f"planner lacks a 'regimes' mapping with at least "
            f"{MIN_PLANNER_REGIMES} fleet regimes"
        )
    else:
        for name, regime in regimes.items():
            prefix = f"planner.regimes[{name!r}]"
            if not isinstance(regime, dict):
                problems.append(f"{prefix} is not a mapping")
                continue
            for key in _PLANNER_REGIME_REQUIRED:
                if key not in regime:
                    problems.append(f"{prefix} lacks {key!r}")
            if regime.get("oracle_match") is not True:
                problems.append(
                    f"{prefix}.oracle_match is not true — the planner "
                    "diverged from the exhaustive-enumeration argmin"
                )
            speedup = regime.get("speedup", 0.0)
            if not isinstance(speedup, (int, float)) or speedup <= MIN_PLANNER_SPEEDUP:
                problems.append(
                    f"{prefix} speedup {speedup!r} does not beat the naive "
                    f"default (must be > {MIN_PLANNER_SPEEDUP}x)"
                )
    executed = section.get("executed")
    if not isinstance(executed, dict) or not executed:
        problems.append("planner lacks a non-empty 'executed' certificate")
        return
    for key in _PLANNER_EXECUTED_REQUIRED:
        if key not in executed:
            problems.append(f"planner.executed lacks {key!r}")
    if executed.get("economics_identical") is not True:
        problems.append(
            "planner.executed.economics_identical is not true — the planned "
            "deployment changed trades, not just clock charges"
        )
    measured = executed.get("measured_speedup", 0.0)
    if not isinstance(measured, (int, float)) or measured <= MIN_PLANNER_SPEEDUP:
        problems.append(
            f"planner.executed measured speedup {measured!r} does not beat "
            f"the naive default (must be > {MIN_PLANNER_SPEEDUP}x)"
        )


def validate(path: Path = BENCH_PATH) -> list:
    problems: list = []
    if not path.exists():
        return [f"missing {path.name}"]
    try:
        report = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path.name} is not valid JSON: {exc}"]
    for key in ("scale", "machine", "datetime", "speedups"):
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
    _check_benchmarks(report, problems)
    _check_parallel(report, problems)
    _check_comparison(report, problems)
    _check_garbling(report, problems)
    _check_multiexp(report, problems)
    _check_aggregation_topology(report, problems)
    _check_session_reuse(report, problems)
    _check_pipelining(report, problems)
    _check_chaos(report, problems)
    _check_planner(report, problems)
    return problems


def main() -> int:
    problems = validate()
    if problems:
        print("check-bench-schema: FAILED")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"check-bench-schema: OK ({BENCH_PATH.name} matches the documented schema)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
