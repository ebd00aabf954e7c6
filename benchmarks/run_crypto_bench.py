#!/usr/bin/env python
"""Run one experiment per report section and write ``BENCH_crypto.json``.

Every value in the report is an identity certificate or a figure on the
simulated clock, so the file is a pure function of the code: two runs
write the same bytes, and ``make ci`` diffs a fresh run against the
committed file.  Host wall-clock is perfbench's job (``python -m
perfbench``), not this report's.  The report is held to
``scripts/check_bench_schema.py``'s ``validate`` — the one place every
identity certificate and floor is declared and tested — and the run exits
non-zero with the problems it finds.  ``docs/BENCHMARKS.md`` says what
each section measures and certifies.

Usage::

    python benchmarks/run_crypto_bench.py [--output BENCH_crypto.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "scripts")]

from check_bench_schema import measured_floors, project, validate  # noqa: E402

#: worker counts of every sharding / bit-identity certificate.
WORKER_COUNTS = (1, 2, 4)

#: (home_count, sampled windows, crypto key bits, workers) of the
#: parallel-day run; kept small — the point is the sharding behavior, not
#: the absolute crypto cost.
PARALLEL_DAY = (24, 12, 256, 4)

#: comparator bit widths covered by the ``comparison`` report section.
COMPARISON_BIT_WIDTHS = (32, 64)
#: random operand pairs per width for the outcome-identity certificate.
COMPARISON_SAMPLES = 24

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

#: (home_count, sampled windows) of the session-reuse day; the speedup is
#: *largest* at small samples (the fixed setup dominates).
SESSION_DAY = (12, 6)

#: (home_count, sampled windows) of the pipelined day — the session-reuse
#: day's shape (both are day-scope experiments).
PIPELINE_DAY = SESSION_DAY

#: (home_count, sampled windows) of the chaos survival matrix — every cell
#: runs the whole sampled day, so the matrix dominates the section's cost
#: and stays deliberately small.
CHAOS_DAY = (10, 3)
#: the chaos section's fault-plan seed (fixed: the report must be
#: reproducible run over run).
CHAOS_SEED = 20

#: (home_count, sampled windows) of the planner section's executed day —
#: the planned vs. naive end-to-end economics-identity certificate.
PLANNER_DAY = (10, 4)


def run_comparison_section() -> dict:
    """Build the ``comparison`` report section.

    Simulated seconds come from the calibrated cost model (the repo's
    canonical runtime metric); the outcome certificate records whether,
    over random operand pairs, the pooled path, the inline path and the
    plaintext comparison all agreed.
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
            inline_result = secure_greater_than(
                a, b, bit_width=bit_width, rng=random.Random(a ^ b)
            ).result
            if not (pooled_result == inline_result == (a > b)):
                matches = False
                break

        section[str(bit_width)] = {
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
    return section


def run_multiexp_section() -> dict:
    """Build the ``multiexp`` report section.

    The fixed-base comb, its table build included, is certified against
    the builtin ``pow`` oracle over one base raised to a batch of small
    exponents.
    """
    import random

    from repro.crypto.accel import FixedBaseTable

    rng = random.Random(0xC0FFEE)
    modulus = rng.getrandbits(MULTIEXP_MODULUS_BITS) | (
        1 << (MULTIEXP_MODULUS_BITS - 1)
    ) | 1
    base = rng.randrange(2, modulus)
    small_exponents = [
        rng.getrandbits(MULTIEXP_SMALL_EXPONENT_BITS) for _ in range(MULTIEXP_BATCH)
    ]
    table = FixedBaseTable(base, modulus, max_exponent_bits=MULTIEXP_SMALL_EXPONENT_BITS)
    return {
        "modulus_bits": MULTIEXP_MODULUS_BITS,
        "fixed_base_comb": {
            "matches_pow": [table.powmod(e) for e in small_exponents]
            == [pow(base, e, modulus) for e in small_exponents],
            "exponent_bits": MULTIEXP_SMALL_EXPONENT_BITS,
            "batch": MULTIEXP_BATCH,
        },
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


def run_session_section() -> dict:
    """Build the ``session_reuse`` report section."""
    from repro.analysis.experiments import experiment_session_reuse

    homes, windows = SESSION_DAY
    return project(experiment_session_reuse(homes, windows, worker_counts=WORKER_COUNTS))


def run_pipelining_section() -> dict:
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

    homes, windows = PIPELINE_DAY
    return project(experiment_window_pipelining(homes, windows, worker_counts=WORKER_COUNTS))


def run_chaos_section() -> dict:
    """Build the ``chaos`` report section.

    A seeded deterministic fault plan (frame drops / reorders / duplicates
    / corruption, a mid-window pool drain, and — on the socket fan-out —
    a SIGKILLed shard worker) is executed across the survival matrix of
    transport x session-scope x workers, plus one tampered-GC run (see
    ``docs/CHAOS.md``).
    """
    from repro.analysis.experiments import experiment_chaos_matrix

    homes, windows = CHAOS_DAY
    return project(
        experiment_chaos_matrix(
            homes, windows, worker_counts=WORKER_COUNTS, chaos_seed=CHAOS_SEED
        )
    )


def run_planner_section() -> dict:
    """Build the ``planner`` report section.

    The deployment planner plans three fleet regimes (single LAN host,
    LAN cluster, WAN fleet of homes) by exhaustive enumeration; the
    first regime's emitted ``ProtocolConfig`` +
    ``ExecutionPlan`` then executes a real sampled day next to the naive
    default — see ``docs/PLANNER.md``.
    """
    from repro.analysis.experiments import experiment_planner_sweep

    homes, windows = PLANNER_DAY
    return project(experiment_planner_sweep(homes, windows))


def run_parallel_day() -> dict:
    """Execute the sharded-day experiment and distill it for the report."""
    from repro.analysis.experiments import experiment_parallel_day

    home_count, sample_count, crypto_bits, workers = PARALLEL_DAY
    return project(
        experiment_parallel_day(
            home_count=home_count,
            sample_count=sample_count,
            workers=workers,
            crypto_key_size=crypto_bits,
        )
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_crypto.json",
    )
    args = parser.parse_args()

    report: dict = {}
    print("running the comparison outcome-identity check ...")
    report["comparison"] = run_comparison_section()
    print("running the multi-exponentiation oracle certificates ...")
    report["multiexp"] = run_multiexp_section()
    print("running the aggregation-topology sweep + identity/sharding certificates ...")
    report["aggregation_topology"] = run_topology_section()
    print("running the session-reuse day (window vs. day scope, socket transport) ...")
    report["session_reuse"] = run_session_section()
    print("running the pipelined day (offline/online overlap + certificates) ...")
    report["pipelining"] = run_pipelining_section()
    print("running the chaos survival matrix + fail-closed certificates ...")
    report["chaos"] = run_chaos_section()
    print("running the deployment-planner sweep (executed certificate) ...")
    report["planner"] = run_planner_section()
    print("running the sharded-day experiment (serial vs. sharded) ...")
    report["parallel_runner"] = run_parallel_day()
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    args.output.write_text(text)
    written = json.loads(text)  # the gate sees exactly what the file holds

    print(f"wrote {args.output}")
    for line in measured_floors(written):
        print(f"  {line}")
    problems = validate(written)
    for problem in problems:
        print(f"ERROR: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
