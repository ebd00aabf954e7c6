#!/usr/bin/env python
"""Paired parent/change perfbench runs: the standing perf-claim protocol.

A speedup claim in this repo is a paired measurement (ROADMAP, "A perf
claim is a paired measurement"): the parent commit and the change, each in
a pycache-free copy, alternate ``python -m perfbench`` runs on one workload
and the change must win at least nine tenths of the pairs by more than the
parent's own quartile spread, with ``bytes_per_window`` identical per seed.
This script is that protocol as one command, claim and controls together::

    python scripts/perf_pair.py --workload live_gc_128 --pairs 10 \\
        --seeds 11,12,13,14,15,16,17,18,19,20
    python scripts/perf_pair.py --workload all --claim live_socket_128 \\
        --pairs 10 --control-pairs 4

``--workload`` takes one name, a comma-separated list or ``all`` (every
workload ``BENCHMARK.json`` declares); each workload gets its own series
of alternating pairs and its own table, and a final verdict line reads the
claim off ``--claim`` (default: the first workload listed) and holds every
workload, the claimed one included, to its ``BENCHMARK.json`` bounds — a
metric whose parent runs spread wider than its bound reads ``unresolved``
unless every change run beats every parent run — and to a failed-window
share no larger than the parent's.

It exports ``--parent`` (default ``HEAD~1``; use ``HEAD`` to compare an
uncommitted working tree against its base) with ``git archive`` and copies
the working tree's tracked and untracked-but-not-ignored files into two
temporary directories, runs the benchmark in each — alternating which side
goes first — and prints every run, then per-side median and quartiles,
pairs won and the per-seed ``bytes_per_window`` match for each end-to-end
metric.  It only *calls* perfbench: nothing is recorded
(``perfbench/history.jsonl`` is never written; each copy's
``perfbench/out/`` dies with its temporary directory).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The metric whose per-seed equality certifies "same protocol, same bytes".
BYTES_METRIC = "bytes_per_window"

#: The metric a claim is made on (every perfbench claim so far).
CLAIM_METRIC = "windows_per_s"


def export_parent(rev: str, target: Path) -> None:
    """Unpack commit ``rev`` into ``target`` (committed files only)."""
    target.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", rev], cwd=REPO_ROOT, check=True, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)


def export_working_tree(target: Path) -> None:
    """Copy tracked + untracked-not-ignored files, so no ``__pycache__``."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO_ROOT,
        check=True,
        stdout=subprocess.PIPE,
    )
    for name in filter(None, listing.stdout.decode().split("\0")):
        source = REPO_ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            destination = target / name
            destination.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, destination)


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``python -m perfbench`` run in ``tree``; returns its JSON last line."""
    command = [
        sys.executable, "-m", "perfbench", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree} (exit {done.returncode}):\n{done.stdout}")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def pairs_won(
    parent: Sequence[float], change: Sequence[float], better: str
) -> Tuple[int, int]:
    """``(pairs the change won, pairs tied)``; a tie counts for neither side."""
    sign = 1 if better == "higher" else -1
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    tied = sum(1 for p, c in zip(parent, change) if c == p)
    return won, tied


def summarize(runs: List[Dict[str, dict]], better: Dict[str, str]) -> List[str]:
    """The per-metric table over all pairs (``runs[i]`` maps side → result)."""
    lines = []
    for name in runs[0]["parent"]["metrics"]:
        parent = [run["parent"]["metrics"][name]["value"] for run in runs]
        change = [run["change"]["metrics"][name]["value"] for run in runs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        won, tied = pairs_won(parent, change, better.get(name, "lower"))
        ratio = f"{cm / pm:.3f}x" if pm else "n/a"
        lines.append(
            f"{name:18s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  change/parent {ratio}  "
            f"won {won}/{len(runs)} (tied {tied})  "
            f"beyond parent IQR: {'yes' if abs(cm - pm) > p3 - p1 else 'no'}"
        )
    return lines


def bytes_mismatches(runs: List[Dict[str, dict]]) -> List[int]:
    """Seeds on which the two sides' ``bytes_per_window`` differ."""
    return sorted(
        {
            run["seed"]
            for run in runs
            if run["parent"]["metrics"][BYTES_METRIC] != run["change"]["metrics"][BYTES_METRIC]
        }
    )


def claim_verdict(runs: List[Dict[str, dict]], metric: str, better: str) -> Tuple[bool, str]:
    """Whether ``metric`` meets the claim rule, and the sentence that says so.

    The rule: the change wins at least nine tenths of the pairs, and its
    median is better than the parent's by more than the parent's own
    quartile distance.
    """
    parent = [run["parent"]["metrics"][metric]["value"] for run in runs]
    change = [run["change"]["metrics"][metric]["value"] for run in runs]
    (p1, pm, p3), (_, cm, _) = quartiles(parent), quartiles(change)
    won, _ = pairs_won(parent, change, better)
    gap = (cm - pm) if better == "higher" else (pm - cm)
    met = 10 * won >= 9 * len(runs) and gap > p3 - p1
    ratio = f"{cm / pm:.3f}x" if pm else "n/a"
    return met, (
        f"{metric} won {won}/{len(runs)}, median {pm:.6g} -> {cm:.6g} ({ratio}), "
        f"gap {gap:.3g} vs parent IQR {p3 - p1:.3g}: {'met' if met else 'NOT met'}"
    )


def bound_statuses(runs: List[Dict[str, dict]], end_to_end: Sequence[dict]) -> Dict[str, str]:
    """Each end-to-end metric in ``runs`` -> ``inside``, ``outside`` or ``unresolved``.

    ``outside``: the change's median is worse than the parent's by more
    than the metric's bound.  ``unresolved``: the parent's own quartile
    spread is wider than the bound, so the runs spread too widely to tell —
    unless every change run beats every parent run, which is ``inside``.
    """
    statuses = {}
    for metric in end_to_end:
        name = metric["name"]
        if name not in runs[0]["parent"]["metrics"]:
            continue
        parent = [run["parent"]["metrics"][name]["value"] for run in runs]
        change = [run["change"]["metrics"][name]["value"] for run in runs]
        (p1, pm, p3), (_, cm, _) = quartiles(parent), quartiles(change)
        higher = metric["better"] == "higher"
        allowed = metric["bound"] * abs(pm)
        if p3 - p1 > allowed:
            dominates = min(change) > max(parent) if higher else max(change) < min(parent)
            statuses[name] = "inside" if dominates else "unresolved"
        else:
            worse = (pm - cm) if higher else (cm - pm)
            statuses[name] = "outside" if worse > allowed else "inside"
    return statuses


def failed_shares(runs: List[Dict[str, dict]]) -> Tuple[float, float]:
    """The failed share of attempted windows on the parent side and the change side."""
    shares = []
    for side in ("parent", "change"):
        attempted = sum(run[side]["attempted"] for run in runs)
        shares.append(sum(run[side]["failed"] for run in runs) / attempted if attempted else 0.0)
    return shares[0], shares[1]


def verdict(
    runs: Dict[str, List[Dict[str, dict]]], claim: str, metric: str, declared: dict
) -> str:
    """The one line a claim is read from: the claim, the bounds, the bytes, the failures.

    The claim rule judges only ``metric`` on ``claim``; every workload, the
    claimed one included, is held to its end-to-end bounds and must not
    fail a larger share of its windows than the parent.
    """
    direction = next(
        (m["better"] for m in declared["end_to_end"] if m["name"] == metric), "lower"
    )
    _, claimed = claim_verdict(runs[claim], metric, direction)
    bounded, mismatched, failing = [], [], []
    for workload, series in runs.items():
        statuses = bound_statuses(series, declared["end_to_end"])
        notes = [
            f"{label} ({', '.join(name for name, s in statuses.items() if s == status)})"
            for status, label in (("outside", "NO"), ("unresolved", "unresolved"))
            if status in statuses.values()
        ]
        bounded.append(f"{workload} {' '.join(notes) or 'yes'}")
        seeds_off = BYTES_METRIC in series[0]["parent"]["metrics"] and bytes_mismatches(series)
        if seeds_off:
            mismatched.append(f"{workload} seeds {seeds_off}")
        parent_share, change_share = failed_shares(series)
        if change_share > parent_share:
            failing.append(f"{workload} {parent_share:.2%} -> {change_share:.2%}")
    return (
        f"verdict: claim {claim} {claimed}; "
        f"inside bound: {', '.join(bounded)}; "
        f"{BYTES_METRIC} identical per seed: "
        f"{'NO, ' + '; '.join(mismatched) if mismatched else 'yes'}; "
        f"failed-window share no larger: "
        f"{'NO, ' + '; '.join(failing) if failing else 'yes'}"
    )


def _describe(result: dict) -> str:
    rate = result["metrics"].get("windows_per_s", {}).get("value", float("nan"))
    return f"{rate:.2f} w/s ({result['failed']}/{result['attempted']} failed)"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, help="a name, a comma-separated list, or 'all'"
    )
    parser.add_argument("--claim", help="the claimed workload (default: the first listed)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--control-pairs", type=int, help="pairs on the other workloads (default: --pairs)"
    )
    parser.add_argument(
        "--seeds",
        default="",
        help="comma-separated, cycled over the pairs (default: 11, 12, ... one per pair)",
    )
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent side")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write every run's JSON here")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s] or list(range(11, 11 + args.pairs))

    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    workloads = (
        [w["name"] for w in declared["workloads"]]
        if args.workload == "all"
        else [name for name in args.workload.split(",") if name]
    )
    claim = args.claim or workloads[0]
    if claim not in workloads:
        parser.error(f"--claim {claim} is not among the workloads {workloads}")

    runs: Dict[str, List[Dict[str, dict]]] = {workload: [] for workload in workloads}
    with tempfile.TemporaryDirectory(prefix="perf_pair.") as scratch:
        trees = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        export_parent(args.parent, trees["parent"])
        export_working_tree(trees["change"])
        for workload in workloads:
            pairs = args.control_pairs if workload != claim and args.control_pairs else args.pairs
            for pair in range(pairs):
                seed = seeds[pair % len(seeds)]
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                results = {
                    side: run_benchmark(trees[side], workload, seed, args.seconds, args.trace)
                    for side in order
                }
                runs[workload].append({"seed": seed, "first": order[0], **results})
                print(
                    f"{workload} pair {pair + 1:2d} seed {seed:3d} first={order[0]:6s}  "
                    f"parent {_describe(results['parent'])}  "
                    f"change {_describe(results['change'])}",
                    flush=True,
                )
            series = runs[workload]
            print(
                f"\n{workload}: {len(series)} pairs, parent={args.parent}, "
                f"{args.seconds:g} s runs"
            )
            print("\n".join(summarize(series, better)))
            if BYTES_METRIC in series[0]["parent"]["metrics"]:
                seeds_off = bytes_mismatches(series)
                print(
                    f"{BYTES_METRIC} identical per seed: "
                    f"{'yes' if not seeds_off else f'NO, seeds {seeds_off}'}"
                )
            sides = [run[side] for run in series for side in ("parent", "change")]
            print(
                f"failed windows: {sum(r['failed'] for r in sides)}; "
                f"runs failing the correctness gate: {sum(not r['correct'] for r in sides)}"
            )

    if CLAIM_METRIC in runs[claim][0]["parent"]["metrics"]:  # a traced pair has no end-to-end metrics
        print("\n" + verdict(runs, claim, CLAIM_METRIC, declared))
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
