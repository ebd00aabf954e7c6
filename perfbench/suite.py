"""A full set: every workload for several rounds, then one traced run each.

One fresh interpreter per (workload, round) keeps ``peak_rss_mb`` clean;
rounds go round-robin across workloads (W1r1, W2r1, W3r1, W4r1, W1r2, ...)
so a slow spell on a shared host hits one round of each workload instead
of every round of one.  Each child is the benchmark contract's own command,
so a set is exactly what the PR driver runs, repeated and tabulated.
"""

from __future__ import annotations

import datetime
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from .driver import OUT_DIR, ROOT, RunResult, run_once
from .workloads import END_TO_END, PER_LAYER, WORKLOADS, Workload

__all__ = ["run_set", "print_set", "compare_sets", "record_history", "HISTORY_PATH"]

HISTORY_PATH = ROOT / "perfbench" / "history.jsonl"
DETAIL_PREFIX = "detail "

#: Layer groups whose share of the window wall the acceptance criteria name.
LAYER_GROUPS = {
    "crypto.accel+paillier": ("crypto.accel.", "crypto.paillier."),
    "crypto.gc": ("crypto.gc_pool.", "crypto.gc."),
    "net": ("net.",),
}


def _child(workload: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    """Run the contract command in a fresh interpreter and parse what it prints."""
    command = [
        sys.executable, "-m", "perfbench",
        "--workload", workload.name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(command)} printed nothing (exit {done.returncode})")
    printed = json.loads(lines[-1])
    detail = next(
        (json.loads(l[len(DETAIL_PREFIX):]) for l in lines if l.startswith(DETAIL_PREFIX)), {}
    )
    return RunResult(
        workload=workload.name,
        seed=seed,
        trace=trace,
        attempted=printed["attempted"],
        failed=printed["failed"],
        metrics={n: (m["value"], m["unit"]) for n, m in printed["metrics"].items()},
        detail=detail,
    )


def _in_process(workload: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    return run_once(workload.smoke(), seed, seconds, trace, smoke=True)


def run_set(seed: int, seconds: float, rounds: int, smoke: bool = False) -> Dict[str, object]:
    """Run one full set and fold it into the result document.

    ``smoke`` runs the seconds-long workload variants in this process (no
    child interpreters, no pinning) — its numbers exercise every code path
    and mean nothing.
    """
    def launch(workload: Workload, trace: bool) -> RunResult:
        result = (_in_process if smoke else _child)(workload, seed, seconds, trace)
        if not result.metrics:
            # No pass of the run completed: there is nothing to tabulate.
            raise RuntimeError(
                f"{workload.name} (trace {int(trace)}): {result.failed} of {result.attempted} "
                "windows failed and no pass completed:\n"
                + "\n".join(result.detail.get("failures", []))
            )
        return result

    untraced: Dict[str, List[RunResult]] = {w.name: [] for w in WORKLOADS}
    for round_index in range(rounds):
        for workload in WORKLOADS:
            result = launch(workload, False)
            untraced[workload.name].append(result)
            print(
                f"round {round_index + 1}/{rounds} {workload.name}: "
                f"{result.metrics['windows_per_s'][0]:.3f} windows/s, "
                f"{result.attempted} windows, {result.failed} failed"
            )
    traced: Dict[str, RunResult] = {}
    for workload in WORKLOADS:
        traced[workload.name] = launch(workload, True)
        print(f"traced {workload.name}: {traced[workload.name].detail.get('spans', 0)} spans")

    document: Dict[str, object] = {
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    references: List[float] = []
    gate_misses: List[str] = []
    for workload in WORKLOADS:
        runs, trace_run = untraced[workload.name], traced[workload.name]
        end_to_end = {}
        for metric in END_TO_END:
            values = [run.metrics[metric.name][0] for run in runs]
            end_to_end[metric.name] = {
                "value": statistics.median(values),
                "unit": metric.unit,
                "rounds": values,
            }
        attempted = sum(run.attempted for run in runs) + trace_run.attempted
        failed = sum(run.failed for run in runs) + trace_run.failed
        for run in (*runs, trace_run):
            if "host_reference_s" in run.detail:
                references.append(run.detail["host_reference_s"])
            gate_misses.extend(f"{workload.name}: {f}" for f in run.detail.get("failures", []))
        if failed and not any(m.startswith(workload.name) for m in gate_misses):
            gate_misses.append(f"{workload.name}: {failed} failed windows")
        # Every round executes the same window list, so counts must repeat.
        if len(set(end_to_end["bytes_per_window"]["rounds"])) > 1:
            gate_misses.append(f"{workload.name}: bytes_per_window differs across rounds")
        document["workloads"][workload.name] = {
            "end_to_end": end_to_end,
            "per_layer": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in trace_run.metrics.items()
            },
            "attempted": attempted,
            "failed": failed,
            "failed_window_share": failed / max(1, attempted),
            "passes": [run.detail.get("passes", 0) for run in runs],
            "window_samples": [run.detail.get("window_samples", 0) for run in runs],
            "traced_windows": trace_run.detail.get("traced_windows", 0),
            "spans_file": trace_run.detail.get("spans_file"),
        }
    # The probe's least reading is the host at its best; it should be the
    # same in every run.  If the set's first and last runs disagree, the
    # host itself changed under the set, not merely its load.
    document["host.calibration_s"] = statistics.median(references) if references else 0.0
    document["host_drift"] = bool(
        references and abs(references[-1] - references[0]) / references[0] > 0.10
    )
    document["gate_misses"] = gate_misses
    return document


def layer_shares(per_layer: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Each layer group's self time as a share of the window wall.

    The window wall is ``run_window`` plus opening and closing the window's
    network (the live loop opens it outside ``run_window``, as
    ``execute_shard`` does).
    """
    def value(name: str) -> float:
        return per_layer[name]["value"]

    wall = value("protocols.window.total_s") + value("net.transport.open.self_s")
    window_scope = {m.name for m in PER_LAYER if m.scope == "window"}
    shares = {
        group: sum(
            value(name)
            for name in window_scope
            if name.endswith(".self_s")
            and name.startswith(prefixes)
            # reserve() runs on the pipeline's stage thread, beside the window.
            and ".reserve." not in name
        )
        / wall
        for group, prefixes in LAYER_GROUPS.items()
    }
    shares["unattributed"] = value("protocols.window.self_s") / value("protocols.window.total_s")
    return shares


def print_set(document: Dict[str, object]) -> None:
    """Every metric by name, with unit and sample count, then the trace tables."""
    bounds = {m.name: m.bound for m in END_TO_END}
    workloads: Dict[str, dict] = document["workloads"]
    print()
    print(f"end-to-end (seed {document['seed']}, {document['rounds']} round(s) of "
        f"{document['seconds']} s, nproc {document['nproc']}; median over rounds)")
    print(f"{'workload':<20} {'metric':<18} {'value':>14} {'unit':<5} {'bound':>6}  "
          "passes/round (percentiles: pooled window samples/round)")
    for name, entry in workloads.items():
        for metric, cell in entry["end_to_end"].items():
            samples = entry["window_samples" if metric.startswith("window_p") else "passes"]
            print(f"{name:<20} {metric:<18} {cell['value']:>14.6g} {cell['unit']:<5} "
                  f"{bounds[metric]:>6.2f}  {samples}")
        print(f"{name:<20} {'failed_window_share':<18} {entry['failed_window_share']:>14.6g} "
            f"{'ratio':<5} {0:>6.2f}  {entry['failed']}/{entry['attempted']} windows")
    print()
    print("per-layer (traced run; window-scope rows are per window, run-scope rows per run)")
    names = list(workloads)
    print(f"{'metric':<36} {'unit':<6} {'scope':<6} " + " ".join(f"{n:>19}" for n in names))
    for metric in PER_LAYER:
        cells = " ".join(
            f"{workloads[n]['per_layer'][metric.name]['value']:>19.6g}" for n in names
        )
        print(f"{metric.name:<36} {metric.unit:<6} {metric.scope:<6} {cells}")
    print()
    print("layer self time as a share of the window wall")
    shares = {n: layer_shares(workloads[n]["per_layer"]) for n in names}
    for group in (*LAYER_GROUPS, "unattributed"):
        cells = " ".join(f"{shares[n][group]:>19.3f}" for n in names)
        print(f"{group:<50} {cells}")
    print()
    print(f"host.calibration_s {document['host.calibration_s']:.6f} s, "
        f"host_drift {document['host_drift']}")
    for miss in document["gate_misses"]:
        print(f"GATE MISS {miss}")


def compare_sets(first: Dict[str, object], second: Dict[str, object]) -> bool:
    """Print both sets side by side; ``True`` when they agree within bounds.

    End-to-end medians must agree within each metric's bound; per-layer
    counts (which omit waiting, so nothing excuses a difference) must be
    bit-equal; neither set may be flagged ``host_drift``.
    """
    agree = True
    print()
    print(f"{'workload':<20} {'metric':<18} {'set 1':>14} {'set 2':>14} {'rel diff':>9} {'bound':>6}")
    for workload in WORKLOADS:
        one = first["workloads"][workload.name]
        two = second["workloads"][workload.name]
        for metric in END_TO_END:
            a = one["end_to_end"][metric.name]["value"]
            b = two["end_to_end"][metric.name]["value"]
            difference = abs(b - a) / abs(a)
            within = difference <= metric.bound
            agree &= within
            print(f"{workload.name:<20} {metric.name:<18} {a:>14.6g} {b:>14.6g} "
                f"{difference:>9.4f} {metric.bound:>6.2f}{'' if within else '  DISAGREE'}")
        for metric in PER_LAYER:
            if not metric.exact:
                continue
            a = one["per_layer"][metric.name]["value"]
            b = two["per_layer"][metric.name]["value"]
            if a != b:
                agree = False
                print(f"{workload.name:<20} {metric.name}: count {a!r} != {b!r}  DISAGREE")
    for label, document in (("set 1", first), ("set 2", second)):
        if document["host_drift"]:
            agree = False
            print(f"{label} is flagged host_drift")
    print(f"nproc {first['nproc']}: sets {'agree' if agree else 'DISAGREE'}")
    return agree


def _git(*arguments: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *arguments], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def record_history(document: Dict[str, object]) -> Dict[str, object]:
    """Append this set's end-to-end table to ``perfbench/history.jsonl``."""
    status = _git("status", "--porcelain")
    line = {
        "commit": _git("rev-parse", "--short", "HEAD") or "unknown",
        "dirty": bool(status),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": document["nproc"],
        "seed": document["seed"],
        "seconds": document["seconds"],
        "rounds": document["rounds"],
        "host.calibration_s": document["host.calibration_s"],
        "end_to_end": {
            name: {
                **{metric: cell["value"] for metric, cell in entry["end_to_end"].items()},
                "failed_window_share": entry["failed_window_share"],
            }
            for name, entry in document["workloads"].items()
        },
    }
    with HISTORY_PATH.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")
    return line


def write_result(document: Dict[str, object]) -> str:
    """Write the set's result document under ``perfbench/out/``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / ("result-smoke.json" if document["smoke"] else "result.json")
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return str(path.relative_to(ROOT))
