#!/usr/bin/env python
"""Run the crypto micro-benchmarks and distill them into ``BENCH_crypto.json``.

Executes ``benchmarks/test_crypto_micro.py`` under pytest-benchmark, runs
one experiment per report section, writes the report and holds it to
``scripts/check_bench_schema.py``'s ``validate`` — the one place every
identity certificate and floor is declared and tested — exiting non-zero
with the problems it finds.  ``docs/BENCHMARKS.md`` says what each section
measures and certifies.

Usage::

    python benchmarks/run_crypto_bench.py [--scale smoke|quick|default|full]
                                          [--workers N] [--skip-parallel]
                                          [--output BENCH_crypto.json]

The scale defaults to ``REPRO_BENCH_SCALE`` (or ``default``); ``smoke`` is
the CI mode — key sizes scaled down so the whole run takes seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "scripts")]

from check_bench_schema import measured_floors, project, validate  # noqa: E402

#: worker counts of every sharding / bit-identity certificate.
WORKER_COUNTS = (1, 2, 4)

#: (home_count, sampled windows, crypto key bits) per scale for the
#: parallel-day run; kept small — the point is the sharding behavior, not
#: the absolute crypto cost.
PARALLEL_SCALES = {
    "smoke": (12, 8, 128),
    "quick": (16, 8, 128),
    "default": (24, 12, 256),
    "full": (48, 24, 256),
}

#: (after, before) benchmark pairs whose mean-time ratio we report.
SPEEDUP_PAIRS = {
    "encrypt_pooled_vs_fresh": ("test_paillier_encrypt", "test_paillier_encrypt_fresh"),
    "decrypt_crt_vs_textbook": ("test_paillier_decrypt", "test_paillier_decrypt_textbook"),
    "comparison_pooled_vs_classic": (
        "test_garbled_comparison_pooled_online",
        "test_garbled_secure_comparison",
    ),
}

#: comparator bit widths covered by the ``comparison`` report section.
COMPARISON_BIT_WIDTHS = (32, 64)
#: random operand pairs per width for the outcome-identity certificate.
COMPARISON_SAMPLES = 24

#: garbling schemes compared head to head by the ``garbling`` section.
GARBLING_SCHEMES_COMPARED = ("classic", "halfgates")
#: repeated garbles per (width, scheme) behind the wall-clock ratio.
GARBLING_TIMING_ROUNDS = 40
#: random operand pairs per width for the cross-scheme outcome certificate.
GARBLING_SAMPLES = 16
#: (home_count, sampled windows) per scale for the scheme-invariance day.
GARBLING_DAY_SCALES = {
    "smoke": (8, 2),
    "quick": (10, 3),
    "default": (12, 4),
    "full": (16, 6),
}

#: modulus size of the multiexp certificates (Paillier n² at the 256-bit
#: bench key size is 1024 bits; 512 keeps the oracle comparisons fast).
MULTIEXP_MODULUS_BITS = 512
#: small-exponent batch shape of the fixed-base comb certificate: ONE base
#: raised to many small multipliers.
MULTIEXP_SMALL_EXPONENT_BITS = 64
MULTIEXP_BATCH = 16

#: requester counts covered by the ``aggregation_topology`` section.
TOPOLOGY_REQUESTER_COUNTS = (8, 32, 128)
#: topologies swept by the ``aggregation_topology`` section; the chain is
#: the identity baseline, ``tree:2`` the reported speedup topology.
TOPOLOGY_NAMES = ("chain", "tree:2", "tree:4")

#: (home_count, sampled windows) per scale for the session-reuse day; the
#: speedup is *largest* at small samples (the fixed setup dominates), so
#: small scales still demonstrate the effect.
SESSION_SCALES = {
    "smoke": (10, 4),
    "quick": (12, 6),
    "default": (12, 6),
    "full": (16, 10),
}

#: (home_count, sampled windows) per scale for the pipelined day — shares
#: the session-reuse scales (both are day-scope experiments over the same
#: sampled day shape).
PIPELINE_SCALES = SESSION_SCALES

#: (home_count, sampled windows) per scale for the chaos survival matrix —
#: every cell runs the whole sampled day, so the matrix dominates the
#: section's cost and stays deliberately small.
CHAOS_SCALES = {
    "smoke": (8, 2),
    "quick": (10, 2),
    "default": (10, 3),
    "full": (12, 4),
}
#: the chaos section's fault-plan seed (fixed: the report must be
#: reproducible run over run).
CHAOS_SEED = 20

#: (home_count, sample_count) of the planner section's executed day —
#: the planned vs. naive end-to-end economics-identity certificate.
PLANNER_SCALES = {
    "smoke": (8, 2),
    "quick": (10, 3),
    "default": (10, 4),
    "full": (12, 6),
}


def run_benchmarks(scale: str, json_path: Path) -> None:
    env = dict(os.environ)
    env["REPRO_BENCH_SCALE"] = scale
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(REPO_ROOT / "benchmarks" / "test_crypto_micro.py"),
        "-q",
        "--benchmark-only",
        f"--benchmark-json={json_path}",
    ]
    subprocess.run(command, check=True, env=env, cwd=REPO_ROOT / "benchmarks")


def distill(raw: dict, scale: str) -> dict:
    benches: dict = {}
    for entry in raw.get("benchmarks", []):
        group = entry["name"].split("[")[0]
        param = str(entry.get("param", ""))
        benches.setdefault(group, {})[param] = {
            "mean_s": entry["stats"]["mean"],
            "stddev_s": entry["stats"]["stddev"],
            "rounds": entry["stats"]["rounds"],
        }
    speedups: dict = {}
    for label, (after, before) in SPEEDUP_PAIRS.items():
        per_param = {}
        for param, before_stats in benches.get(before, {}).items():
            after_stats = benches.get(after, {}).get(param)
            if after_stats and after_stats["mean_s"] > 0:
                per_param[param] = round(
                    before_stats["mean_s"] / after_stats["mean_s"], 2
                )
        if per_param:
            speedups[label] = per_param
    return {
        "scale": scale,
        "machine": raw.get("machine_info", {}).get("node", "unknown"),
        "datetime": raw.get("datetime"),
        "benchmarks": benches,
        "speedups": speedups,
    }


def run_comparison_section(benches: dict) -> dict:
    """Build the ``comparison`` report section.

    Simulated seconds come from the calibrated cost model (the repo's
    canonical runtime metric); wall times from the distilled micro
    benchmarks; the outcome certificate records whether, over random
    operand pairs, the pooled path, the classic path and the plaintext
    comparison all agreed.
    """
    import random

    from repro.crypto.circuits import build_greater_than_circuit
    from repro.crypto.gc_pool import ComparisonPool
    from repro.crypto.otext import DEFAULT_KAPPA
    from repro.crypto.secure_comparison import secure_greater_than
    from repro.net.costmodel import CryptoCostModel

    model = CryptoCostModel()
    section: dict = {}
    for bit_width in COMPARISON_BIT_WIDTHS:
        gates = build_greater_than_circuit(bit_width).and_gate_count
        before = model.comparison_seconds(gates, bit_width)
        after = model.comparison_seconds(gates, bit_width, pooled=True)

        pool = ComparisonPool(bit_width)
        pool.warm(COMPARISON_SAMPLES)
        rng = random.Random(bit_width * 7919)
        matches = True
        for _ in range(COMPARISON_SAMPLES):
            a = rng.randrange(0, 1 << bit_width)
            b = rng.randrange(0, 1 << bit_width)
            instance = pool.take()
            pooled_result = instance.evaluate(a, b).result
            classic_result = secure_greater_than(
                a, b, bit_width=bit_width, rng=random.Random(a ^ b)
            ).result
            if not (pooled_result == classic_result == (a > b)):
                matches = False
                break

        entry = {
            "and_gate_count": gates,
            "ot_count": bit_width,
            "base_ot_count": DEFAULT_KAPPA,
            "simulated_online_seconds_before": round(before, 9),
            "simulated_online_seconds_after": round(after, 9),
            "simulated_online_reduction": round(before / after, 2),
            "simulated_offline_seconds_per_instance": round(
                model.prepared_comparison_seconds(gates), 9
            ),
            "simulated_offline_seconds_per_session": round(
                model.base_ot_session_seconds(DEFAULT_KAPPA), 9
            ),
            "outcomes_match": matches,
            "samples": COMPARISON_SAMPLES,
        }
        param = str(bit_width)
        pooled_wall = benches.get("test_garbled_comparison_pooled_online", {}).get(param)
        classic_wall = benches.get("test_garbled_secure_comparison", {}).get(param)
        if pooled_wall and classic_wall and pooled_wall["mean_s"] > 0:
            entry["wall_online_seconds_before"] = classic_wall["mean_s"]
            entry["wall_online_seconds_after"] = pooled_wall["mean_s"]
            entry["wall_online_reduction"] = round(
                classic_wall["mean_s"] / pooled_wall["mean_s"], 2
            )
        section[param] = entry
    return section


def run_garbling_section(scale: str) -> dict:
    """Build the ``garbling`` report section.

    Per comparator width both schemes lower + garble the same circuit:
    ``table_bytes`` comes from the wire-format ``serialized_size`` (free
    gates ship nothing under halfgates), ``garble_wall_seconds`` is a
    measured mean over repeated garbles, and the gate histograms document
    how much of the lowered circuit is XOR-family (free).  Fresh pools of
    both schemes are compared with the plaintext comparison on random
    operands (labels and tables necessarily differ between schemes; the
    *outcome* is the invariant), and each scheme runs a sampled trading
    day at every worker count.
    """
    import random
    import time

    from repro.analysis.experiments import experiment_scheme_shard_invariance
    from repro.crypto.circuits import build_greater_than_circuit
    from repro.crypto.garbled import get_scheme
    from repro.crypto.gc_pool import ComparisonPool

    widths_section: dict = {}
    for bit_width in COMPARISON_BIT_WIDTHS:
        base = build_greater_than_circuit(bit_width)
        per_scheme: dict = {}
        for name in GARBLING_SCHEMES_COMPARED:
            scheme = get_scheme(name)
            circuit = scheme.lower(base)
            rng = random.Random(bit_width)
            scheme.garble(circuit, rng=rng)  # warm-up (hash setup, caches)
            start = time.perf_counter()
            for _ in range(GARBLING_TIMING_ROUNDS):
                out = scheme.garble(circuit, rng=rng)
            garble_seconds = (time.perf_counter() - start) / GARBLING_TIMING_ROUNDS
            per_scheme[name] = {
                "table_bytes": out.garbled.serialized_size(),
                "garble_wall_seconds": round(garble_seconds, 9),
                "and_gate_count": circuit.and_gate_count,
                "gate_histogram": circuit.gate_histogram(),
            }

        pools = {
            name: ComparisonPool(bit_width, scheme=name)
            for name in GARBLING_SCHEMES_COMPARED
        }
        for pool in pools.values():
            pool.warm(GARBLING_SAMPLES)
        rng = random.Random(bit_width * 6151)
        matches = True
        for _ in range(GARBLING_SAMPLES):
            a = rng.randrange(0, 1 << bit_width)
            b = rng.randrange(0, 1 << bit_width)
            for pool in pools.values():
                if pool.take().evaluate(a, b).result != (a > b):
                    matches = False
        classic = per_scheme["classic"]
        halfgates = per_scheme["halfgates"]
        widths_section[str(bit_width)] = dict(
            per_scheme,
            original_gate_histogram=base.gate_histogram(),
            outcomes_match=matches,
            samples=GARBLING_SAMPLES,
            table_bytes_reduction=round(
                classic["table_bytes"] / halfgates["table_bytes"], 2
            ),
            garble_time_reduction=round(
                classic["garble_wall_seconds"] / halfgates["garble_wall_seconds"], 2
            ),
        )

    home_count, sample_count = GARBLING_DAY_SCALES[scale]
    invariance = experiment_scheme_shard_invariance(
        schemes=GARBLING_SCHEMES_COMPARED,
        worker_counts=WORKER_COUNTS,
        home_count=home_count,
        sample_count=sample_count,
    )
    return dict(project(invariance), widths=widths_section)


def run_multiexp_section() -> dict:
    """Build the ``multiexp`` report section.

    The fixed-base comb is certified against the builtin ``pow`` oracle
    and timed against it.  The speedup is *recorded, not gated*: it comes
    from amortization (the comb squares zero times per exponentiation).
    The active bigint backend's identity is part of the report because it
    decides every other wall-clock number in the file.
    """
    import random
    import time

    from repro.crypto.accel import FixedBaseTable, backend

    rng = random.Random(0xC0FFEE)
    modulus = rng.getrandbits(MULTIEXP_MODULUS_BITS) | (
        1 << (MULTIEXP_MODULUS_BITS - 1)
    ) | 1
    base = rng.randrange(2, modulus)

    def timed(thunk):
        start = time.perf_counter()
        result = thunk()
        return result, time.perf_counter() - start

    # Fixed-base comb, amortized over a batch of small exponents.  The
    # table build is charged to the batch: the certificate times build +
    # every exponentiation.
    small_exponents = [
        rng.getrandbits(MULTIEXP_SMALL_EXPONENT_BITS) for _ in range(MULTIEXP_BATCH)
    ]
    oracle, pow_seconds = timed(
        lambda: [pow(base, e, modulus) for e in small_exponents]
    )

    def comb_batch():
        table = FixedBaseTable(
            base, modulus, max_exponent_bits=MULTIEXP_SMALL_EXPONENT_BITS
        )
        return [table.powmod(e) for e in small_exponents]

    combed, comb_seconds = timed(comb_batch)
    fixed_base_entry = {
        "matches_pow": combed == oracle,
        "exponent_bits": MULTIEXP_SMALL_EXPONENT_BITS,
        "batch": MULTIEXP_BATCH,
        "pow_seconds": round(pow_seconds, 9),
        "seconds": round(comb_seconds, 9),
        "speedup_vs_pow": round(pow_seconds / comb_seconds, 2)
        if comb_seconds > 0
        else None,
    }

    return {
        "backend": backend().name,
        "modulus_bits": MULTIEXP_MODULUS_BITS,
        "fixed_base_comb": fixed_base_entry,
    }


def run_topology_section() -> dict:
    """Build the ``aggregation_topology`` report section.

    ``sums_identical`` compares every topology's encrypted sum with the
    serial chain's bit for bit (seeded encryption randomness, commutative
    Paillier product), its decryption with the plaintext sum and its
    offline charge with the chain's; a sampled trading day under each
    topology then runs at every worker count.
    """
    from repro.analysis.experiments import (
        experiment_aggregation_topologies,
        experiment_topology_shard_invariance,
    )

    observations = experiment_aggregation_topologies(
        requester_counts=TOPOLOGY_REQUESTER_COUNTS, topologies=TOPOLOGY_NAMES
    )
    by_count: dict = {}
    for obs in observations:
        by_count.setdefault(obs.requesters, {})[obs.topology] = obs

    requesters_section: dict = {}
    for count, row in sorted(by_count.items()):
        chain = row["chain"]
        entry: dict = {
            "sums_identical": all(
                obs.encrypted_sum == chain.encrypted_sum
                and obs.decrypted_sum == obs.expected_sum
                and obs.offline_seconds == chain.offline_seconds
                for obs in row.values()
            ),
        }
        for name, obs in sorted(row.items()):
            entry[name] = {
                "simulated_seconds": round(obs.simulated_seconds, 9),
                "critical_path_rounds": obs.critical_path_rounds,
                "hops": obs.hops,
            }
        entry["tree_vs_chain_speedup"] = round(
            chain.simulated_seconds / row["tree:2"].simulated_seconds, 2
        )
        requesters_section[str(count)] = entry

    invariance = experiment_topology_shard_invariance(
        topologies=("chain", "tree:2"), worker_counts=WORKER_COUNTS
    )
    return {
        "requesters": requesters_section,
        "shard_invariance": {name: project(cert) for name, cert in invariance.items()},
    }


def run_session_section(scale: str) -> dict:
    """Build the ``session_reuse`` report section."""
    from repro.analysis.experiments import experiment_session_reuse

    homes, windows = SESSION_SCALES[scale]
    return project(experiment_session_reuse(homes, windows, worker_counts=WORKER_COUNTS))


def run_pipelining_section(scale: str) -> dict:
    """Build the ``pipelining`` report section.

    The same day-scoped sampled day runs with and without a
    ``WindowPipeline`` stage under the WAN cost profile (the paper's
    containers sit in homes on residential broadband — the regime where
    offline and online clocks are comparable and overlap pays).  The
    speedup is read off the per-window traces
    (``RunReport.pipelined_simulated_seconds`` vs.
    ``unpipelined_simulated_seconds``).
    """
    from repro.analysis.experiments import experiment_window_pipelining

    homes, windows = PIPELINE_SCALES[scale]
    return project(experiment_window_pipelining(homes, windows, worker_counts=WORKER_COUNTS))


def run_chaos_section(scale: str) -> dict:
    """Build the ``chaos`` report section.

    A seeded deterministic fault plan (frame drops / reorders / duplicates
    / corruption, a mid-window pool drain, and — on the socket fan-out —
    a SIGKILLed shard worker) is executed across the survival matrix of
    transport x session-scope x workers, plus one tampered-GC run (see
    ``docs/CHAOS.md``).
    """
    from repro.analysis.experiments import experiment_chaos_matrix

    homes, windows = CHAOS_SCALES[scale]
    return project(
        experiment_chaos_matrix(
            homes, windows, worker_counts=WORKER_COUNTS, chaos_seed=CHAOS_SEED
        )
    )


def run_planner_section(scale: str) -> dict:
    """Build the ``planner`` report section.

    The deployment planner plans three fleet regimes (single LAN host,
    LAN cluster, WAN fleet of homes) against the exhaustive-enumeration
    oracle; the first regime's emitted ``ProtocolConfig`` +
    ``ExecutionPlan`` then executes a real sampled day next to the naive
    default — see ``docs/PLANNER.md``.
    """
    from repro.analysis.experiments import experiment_planner_sweep

    homes, windows = PLANNER_SCALES[scale]
    return project(experiment_planner_sweep(homes, windows))


def run_parallel_day(scale: str, workers: int, background_refill: bool) -> dict:
    """Execute the sharded-day experiment and distill it for the report."""
    from repro.analysis.experiments import experiment_parallel_day

    home_count, sample_count, crypto_bits = PARALLEL_SCALES[scale]
    return project(
        experiment_parallel_day(
            home_count=home_count,
            sample_count=sample_count,
            workers=workers,
            crypto_key_size=crypto_bits,
            background_refill=background_refill,
        )
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default=os.environ.get("REPRO_BENCH_SCALE", "default"),
        choices=("smoke", "quick", "default", "full"),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker processes for the sharded-day experiment (default 4)",
    )
    parser.add_argument(
        "--background-refill",
        action="store_true",
        help="run the sharded day with background randomizer-pool refills",
    )
    parser.add_argument(
        "--skip-parallel",
        action="store_true",
        help="skip the parallel-runner day experiment",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_crypto.json",
    )
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "raw.json"
        run_benchmarks(args.scale, raw_path)
        raw = json.loads(raw_path.read_text())

    report = distill(raw, args.scale)
    print("running the comparison outcome-identity check ...")
    report["comparison"] = run_comparison_section(report["benchmarks"])
    print("running the garbling-scheme comparison (classic vs. halfgates) ...")
    report["garbling"] = run_garbling_section(args.scale)
    print("running the multi-exponentiation oracle certificates ...")
    report["multiexp"] = run_multiexp_section()
    print("running the aggregation-topology sweep + identity/sharding certificates ...")
    report["aggregation_topology"] = run_topology_section()
    print("running the session-reuse day (window vs. day scope, socket transport) ...")
    report["session_reuse"] = run_session_section(args.scale)
    print("running the pipelined day (offline/online overlap + certificates) ...")
    report["pipelining"] = run_pipelining_section(args.scale)
    print("running the chaos survival matrix + fail-closed certificates ...")
    report["chaos"] = run_chaos_section(args.scale)
    print("running the deployment-planner sweep (oracle + executed certificates) ...")
    report["planner"] = run_planner_section(args.scale)
    if not args.skip_parallel:
        print(f"running the sharded-day experiment ({args.workers} workers) ...")
        report["parallel_runner"] = run_parallel_day(
            args.scale, args.workers, args.background_refill
        )
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    args.output.write_text(text)
    written = json.loads(text)  # the gate sees exactly what the file holds

    print(f"wrote {args.output}")
    for label, per_param in report["speedups"].items():
        for param, ratio in sorted(per_param.items()):
            print(f"  {label}[{param}]: {ratio}x")
    for line in measured_floors(written):
        print(f"  {line}")
    problems = validate(written)
    for problem in problems:
        print(f"ERROR: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
