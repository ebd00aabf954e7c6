#!/usr/bin/env python
"""Paired parent/change perfbench runs: the standing perf-claim protocol.

A speedup claim in this repo is a paired measurement (ROADMAP, "A perf
claim is a paired measurement"): the parent commit and the change, each in
a pycache-free copy, alternate ``python -m perfbench`` runs on one workload
and the change must win at least nine tenths of the pairs by more than the
parent's own quartile spread, with ``bytes_per_window`` identical per seed
(unless ``bytes_per_window`` is itself the claimed metric).
This script is that protocol as one command, claim and controls together::

    python scripts/perf_pair.py --workload live_gc_128 --pairs 10 \\
        --seeds 11,12,13,14,15,16,17,18,19,20
    python scripts/perf_pair.py --workload all --claim live_socket_128 \\
        --pairs 10 --control-pairs 4
    python scripts/perf_pair.py --workload all --claim live_socket_128 \\
        --metric bytes_per_window --pairs 4

``--workload`` takes one name, a comma-separated list or ``all`` (every
workload ``BENCHMARK.json`` declares); each workload gets its own series
of alternating pairs and its own table, and a final verdict line reads the
claim on ``--metric`` (any end-to-end metric ``BENCHMARK.json`` declares;
default ``windows_per_s``) off ``--claim`` (default: the first workload
listed) and holds every workload, the claimed one included, to its
``BENCHMARK.json`` bounds — a metric whose parent runs spread wider than
its bound reads ``unresolved`` unless every change run beats every parent
run — and to a failed-window share no larger than the parent's.

It exports ``--parent`` (default ``HEAD~1``; use ``HEAD`` to compare an
uncommitted working tree against its base) with ``git archive`` and copies
the working tree's tracked and untracked-but-not-ignored files into two
temporary directories, runs the benchmark in each — alternating which side
goes first — and prints every run, then per-side median and quartiles,
pairs won for each end-to-end metric, and the per-seed ``bytes_per_window``
match — or, when that is the claimed metric, its change per seed.  A traced
pair (``--trace 1``) reports per-layer metrics instead; for every count
``perfbench/workloads.py`` declares ``exact`` it prints ``exact counts
equal per seed: yes`` or the metrics and seeds that differ.

``--record`` appends one JSON line per workload series to the root-level
ledger ``BENCH_history.jsonl`` (:func:`ledger_line` documents the fields);
it needs the tier-1 count and wall of the change (``--tier1-passed``,
``--tier1-wall-s``), which the line carries.  perfbench itself is only
*called*, never asked to record: ``perfbench/history.jsonl`` is never
written, and each copy's ``perfbench/out/`` dies with its temporary
directory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The metric whose per-seed equality certifies "same protocol, same bytes".
BYTES_METRIC = "bytes_per_window"

#: The metric a claim is made on unless ``--metric`` names another.
DEFAULT_METRIC = "windows_per_s"

#: The per-layer count a traced pair's bytes are read from.
TRACED_BYTES_METRIC = "net.bytes"

#: The run ledger ``--record`` appends to, one JSON line per paired series.
LEDGER_PATH = REPO_ROOT / "BENCH_history.jsonl"

#: The perfbench ``detail`` fields that say what state the host was in.
HOST_FIELDS = ("host_reference_s", "host_slowdown_share")

#: What a series whose two sides put the same bytes and counts on the wire records.
IDENTICAL = "bytes and exact counts identical"

#: The prefix of the line perfbench prints its run's ``detail`` on.
DETAIL_PREFIX = "detail "


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
    """One ``python -m perfbench`` run in ``tree``: its JSON last line plus its ``detail``."""
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
    result = json.loads(lines[-1])
    details = [line[len(DETAIL_PREFIX):] for line in lines if line.startswith(DETAIL_PREFIX)]
    result["detail"] = json.loads(details[-1]) if details else {}
    return result


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


def _exact_value(result: dict, metric: str) -> Fraction:
    """A run's ``metric`` as an exact number.

    Both byte metrics are a whole byte total over a count of windows:
    ``bytes_per_window`` over the windows attempted, a traced run's
    ``net.bytes`` over its traced passes times the windows of one pass.
    They are rebuilt as that quotient, since subtracting two printed means
    records an exact −16 256 B as ``-16255.999999999996``.
    """
    value = result["metrics"][metric]["value"]
    windows = None
    if metric == BYTES_METRIC:
        windows = result["attempted"]
    elif metric == TRACED_BYTES_METRIC and result.get("detail", {}).get("traced_passes"):
        passes = result["detail"]["traced_passes"]
        windows = passes * max(1, result["detail"]["traced_windows"] // passes)
    if not windows:
        return Fraction(value)
    return Fraction(round(value * windows), windows)


def bytes_deltas(
    runs: List[Dict[str, dict]], metric: str = BYTES_METRIC
) -> List[Tuple[int, float]]:
    """``(seed, change - parent metric)`` of every pair, by seed, without repeats."""
    return sorted(
        {
            (
                run["seed"],
                float(_exact_value(run["change"], metric) - _exact_value(run["parent"], metric)),
            )
            for run in runs
        }
    )


def _spell_deltas(runs: List[Dict[str, dict]]) -> str:
    """``seed delta, ...``, e.g. ``81 -19579.6, 82 -19580.2``."""
    return ", ".join(f"{seed} {delta:+.6g}" for seed, delta in bytes_deltas(runs))


def describe_bytes(runs: List[Dict[str, dict]], claimed: bool) -> str:
    """The per-seed bytes line: identity, or (a bytes claim) the change per seed."""
    if claimed:
        return f"{BYTES_METRIC} change per seed: {_spell_deltas(runs)}"
    seeds_off = bytes_mismatches(runs)
    return f"{BYTES_METRIC} identical per seed: " + (f"NO, seeds {seeds_off}" if seeds_off else "yes")


def exact_metric_names() -> List[str]:
    """The per-layer counts ``perfbench/workloads.py`` declares ``exact``.

    Two runs of one seed reproduce these bit for bit, so a parent and a
    change that run the same protocol must too.
    """
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from perfbench.workloads import PER_LAYER

    return [metric.name for metric in PER_LAYER if metric.exact]


def exact_mismatches(runs: List[Dict[str, dict]], names: Sequence[str]) -> Dict[str, List[int]]:
    """Each exact count whose two sides differ on some seed -> those seeds."""
    differing: Dict[str, List[int]] = {}
    for name in names:
        seeds = sorted(
            {
                run["seed"]
                for run in runs
                if run["parent"]["metrics"].get(name) != run["change"]["metrics"].get(name)
            }
        )
        if seeds:
            differing[name] = seeds
    return differing


def describe_exact(runs: List[Dict[str, dict]], names: Sequence[str]) -> str:
    """The line a traced pair's count identity is read from."""
    differing = exact_mismatches(runs, names)
    return "exact counts equal per seed: " + (
        "NO, " + "; ".join(f"{name} seeds {seeds}" for name, seeds in differing.items())
        if differing
        else "yes"
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
    fail a larger share of its windows than the parent.  Bytes must be
    identical per seed, unless ``metric`` is ``bytes_per_window``: then
    each workload's per-seed change is reported instead.
    """
    direction = next(
        (m["better"] for m in declared["end_to_end"] if m["name"] == metric), "lower"
    )
    _, claimed = claim_verdict(runs[claim], metric, direction)
    bounded, mismatched, changed, failing = [], [], [], []
    for workload, series in runs.items():
        statuses = bound_statuses(series, declared["end_to_end"])
        notes = [
            f"{label} ({', '.join(name for name, s in statuses.items() if s == status)})"
            for status, label in (("outside", "NO"), ("unresolved", "unresolved"))
            if status in statuses.values()
        ]
        bounded.append(f"{workload} {' '.join(notes) or 'yes'}")
        if BYTES_METRIC in series[0]["parent"]["metrics"]:
            if metric == BYTES_METRIC:
                changed.append(f"{workload} {_spell_deltas(series)}")
            elif seeds_off := bytes_mismatches(series):
                mismatched.append(f"{workload} seeds {seeds_off}")
        parent_share, change_share = failed_shares(series)
        if change_share > parent_share:
            failing.append(f"{workload} {parent_share:.2%} -> {change_share:.2%}")
    if metric == BYTES_METRIC:
        per_seed = f"{BYTES_METRIC} change per seed: {'; '.join(changed)}"
    else:
        per_seed = f"{BYTES_METRIC} identical per seed: " + (
            "NO, " + "; ".join(mismatched) if mismatched else "yes"
        )
    return (
        f"verdict: claim {claim} {claimed}; "
        f"inside bound: {', '.join(bounded)}; "
        f"{per_seed}; "
        f"failed-window share no larger: "
        f"{'NO, ' + '; '.join(failing) if failing else 'yes'}"
    )


def git_revision(rev: str) -> str:
    """The short hash of ``rev``."""
    done = subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=REPO_ROOT, check=True,
        stdout=subprocess.PIPE, text=True,
    )  # fmt: skip
    return done.stdout.strip()


def working_tree_dirty() -> bool:
    """Whether tracked files differ from ``HEAD`` (the change side is then uncommitted)."""
    done = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"], cwd=REPO_ROOT,
        check=True, stdout=subprocess.PIPE, text=True,
    )  # fmt: skip
    return bool(done.stdout.strip())


def _host_state(runs: List[Dict[str, dict]], side: str) -> Dict[str, Optional[float]]:
    """Median of each host field over one side's runs (``None`` where none reported it)."""
    state: Dict[str, Optional[float]] = {}
    for name in HOST_FIELDS:
        values = [run[side].get("detail", {}).get(name) for run in runs]
        present = [value for value in values if value is not None]
        state[name] = statistics.median(present) if present else None
    return state


def identity(runs: List[Dict[str, dict]], exact_names: Sequence[str]):
    """:data:`IDENTICAL`, or the per-seed byte change and the exact counts that differ.

    The bytes are ``bytes_per_window`` on an end-to-end series and
    ``net.bytes`` on a traced one.
    """
    metrics = runs[0]["parent"]["metrics"]
    bytes_metric = BYTES_METRIC if BYTES_METRIC in metrics else TRACED_BYTES_METRIC
    deltas = bytes_deltas(runs, bytes_metric) if bytes_metric in metrics else []
    differing = exact_mismatches(
        runs, [name for name in exact_names if name in metrics and name != bytes_metric]
    )
    if not differing and all(delta == 0 for _, delta in deltas):
        return IDENTICAL
    return {
        "bytes_metric": bytes_metric,
        "bytes_delta_per_seed": {str(seed): delta for seed, delta in deltas},
        "exact_counts_differing": differing,
    }


def ledger_line(
    workload: str,
    runs: List[Dict[str, dict]],
    *,
    role: str,
    metric: str,
    better: Dict[str, str],
    exact_names: Sequence[str],
    revisions: Dict[str, object],
    seconds: float,
    trace: int,
    tier1: Dict[str, float],
) -> dict:
    """One ``BENCH_history.jsonl`` line: a paired series, as data.

    Fields: ``date``; ``commit`` / ``dirty`` / ``parent`` (short hashes;
    ``dirty`` means the change side is the working tree on top of
    ``commit``); ``workload``, ``role`` (``claim`` or ``control``), the
    claimed ``metric``, ``seeds`` (one per pair, in order), ``seconds`` and
    ``trace``; per metric, both sides' ``median`` and ``iqr`` and the pairs
    ``won`` / ``tied``; ``identity`` (:func:`identity`); ``host``, each
    side's median :data:`HOST_FIELDS`; ``failed_share`` per side; and
    ``tier1``, the change's ``passed`` count and ``wall_s``.
    """
    table = {}
    for name in runs[0]["parent"]["metrics"]:
        sides = {
            side: [run[side]["metrics"][name]["value"] for run in runs]
            for side in ("parent", "change")
        }
        won, tied = pairs_won(sides["parent"], sides["change"], better.get(name, "lower"))
        entry: Dict[str, float] = {}
        for side, values in sides.items():
            q1, median, q3 = quartiles(values)
            entry[f"{side}_median"] = median
            entry[f"{side}_iqr"] = q3 - q1
        table[name] = {**entry, "won": won, "tied": tied}
    parent_share, change_share = failed_shares(runs)
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        **revisions,
        "workload": workload,
        "role": role,
        "metric": metric,
        "seeds": [run["seed"] for run in runs],
        "seconds": seconds,
        "trace": trace,
        "metrics": table,
        "identity": identity(runs, exact_names),
        "host": {side: _host_state(runs, side) for side in ("parent", "change")},
        "failed_share": {"parent": parent_share, "change": change_share},
        "tier1": tier1,
    }


def _describe(result: dict) -> str:
    rate = result["metrics"].get("windows_per_s", {}).get("value", float("nan"))
    return f"{rate:.2f} w/s ({result['failed']}/{result['attempted']} failed)"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, help="a name, a comma-separated list, or 'all'"
    )
    parser.add_argument("--claim", help="the claimed workload (default: the first listed)")
    parser.add_argument(
        "--metric",
        default=DEFAULT_METRIC,
        help=f"the claimed end-to-end metric (default: {DEFAULT_METRIC})",
    )
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
    parser.add_argument(
        "--record", action="store_true",
        help=f"append one line per workload series to {LEDGER_PATH.name}",
    )  # fmt: skip
    parser.add_argument("--tier1-passed", type=int, help="the change's tier-1 pass count (--record)")
    parser.add_argument("--tier1-wall-s", type=float, help="the change's tier-1 wall (--record)")
    args = parser.parse_args(argv)
    if args.record and (args.tier1_passed is None or args.tier1_wall_s is None):
        parser.error("--record needs --tier1-passed and --tier1-wall-s")
    seeds = [int(s) for s in args.seeds.split(",") if s] or list(range(11, 11 + args.pairs))

    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    exact_names = exact_metric_names()
    workloads = (
        [w["name"] for w in declared["workloads"]]
        if args.workload == "all"
        else [name for name in args.workload.split(",") if name]
    )
    claim = args.claim or workloads[0]
    if claim not in workloads:
        parser.error(f"--claim {claim} is not among the workloads {workloads}")
    declared_metrics = [m["name"] for m in declared["end_to_end"]]
    if args.metric not in declared_metrics:
        parser.error(f"--metric {args.metric} is not an end-to-end metric {declared_metrics}")

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
                print(describe_bytes(series, args.metric == BYTES_METRIC))
            exact = [name for name in exact_names if name in series[0]["parent"]["metrics"]]
            if exact:  # per-layer metrics: a traced pair
                print(describe_exact(series, exact))
            sides = [run[side] for run in series for side in ("parent", "change")]
            print(
                f"failed windows: {sum(r['failed'] for r in sides)}; "
                f"runs failing the correctness gate: {sum(not r['correct'] for r in sides)}"
            )

    if args.metric in runs[claim][0]["parent"]["metrics"]:  # a traced pair has no end-to-end metrics
        print("\n" + verdict(runs, claim, args.metric, declared))
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    if args.record:
        revisions = {
            "commit": git_revision("HEAD"),
            "dirty": working_tree_dirty(),
            "parent": git_revision(args.parent),
        }
        tier1 = {"passed": args.tier1_passed, "wall_s": args.tier1_wall_s}
        with LEDGER_PATH.open("a") as ledger:
            for workload, series in runs.items():
                line = ledger_line(
                    workload, series,
                    role="claim" if workload == claim else "control", metric=args.metric,
                    better=better, exact_names=exact_names, revisions=revisions,
                    seconds=args.seconds, trace=args.trace, tier1=tier1,
                )  # fmt: skip
                ledger.write(json.dumps(line, sort_keys=True) + "\n")
        print(f"recorded {len(runs)} lines in {LEDGER_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
