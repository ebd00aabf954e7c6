#!/usr/bin/env python
"""Run the crypto micro-benchmarks and distill them into ``BENCH_crypto.json``.

Executes ``benchmarks/test_crypto_micro.py`` under pytest-benchmark, then
writes a compact JSON report pairing each accelerated primitive with its
pre-acceleration baseline so the perf trajectory is tracked PR over PR:

* ``encrypt``: pooled online path vs. fresh exponentiation ("before"),
* ``decrypt``: CRT fast path vs. textbook formula ("before"),
* the offline obfuscator precompute cost per entry,
* ``comparison``: the offline garbled-comparison pipeline — prepared
  instances (offline garbling + OT extension) vs. the classic inline Yao
  protocol, on both the simulated cost-model clock and measured wall
  time, plus an outcome-identity certificate (the pooled path must agree
  with the classic path and the plaintext comparison on random operands;
  the script exits non-zero otherwise),
* ``garbling``: the pluggable garbling schemes compared head to head —
  per-instance garbled-table bytes and measured garble wall-clock for
  ``classic`` (point-and-permute, the seed-identical default) vs.
  ``halfgates`` (free-XOR + two-row AND gates), the lowered-circuit gate
  histograms behind the free-gate claim, an outcome-identity certificate
  (both schemes must agree with the plaintext comparison on random
  operands; labels and tables necessarily differ), and a sharding
  certificate (each scheme's sampled day stays bit-identical at workers
  1/2/4 and the schemes stay *economically* identical to each other),
* ``multiexp``: the fixed-base comb (one base, many small exponents)
  certified against the builtin ``pow`` oracle, plus the identity of the
  active bigint backend (``libcrypto`` — OpenSSL's ``BN_mod_exp`` over
  ``ctypes`` for odd moduli of 128 bits and up — or ``python``, builtin
  ``pow``, when the library cannot be bound; the oracle itself stays on
  builtin ``pow`` so that it never shares the library it cross-checks),
* ``parallel_runner``: a Fig. 5-style sampled day executed serially and
  sharded across ``--workers`` processes — certifies the sharded run is
  bit-identical and records the day-runtime speedup on both the simulated
  clock (the repo's canonical runtime metric, near-linear in workers) and
  host wall-clock (bounded by the machine's real core count, which is also
  recorded),
* ``aggregation_topology``: the chain-vs-tree encrypted-sum aggregation —
  critical-path simulated time per topology at n ∈ {8, 32, 128}
  requesters under the latency-hiding cost model, an identity certificate
  (every topology must produce the bit-identical encrypted sum the serial
  chain produces; the script exits non-zero otherwise), and a sharding
  certificate (chain and tree days stay bit-identical at workers 1/2/4),
* ``session_reuse``: the same sampled day with window-scoped vs.
  day-scoped protocol sessions — the simulated-day speedup of amortizing
  the fixed 0.5 s setup and the base-OT session across the day, with
  three certificates (the script exits non-zero if any fails): the two
  scopes must be economically identical, the day-scoped run must stay
  bit-identical under sharding at workers 1/2/4 (sessions established
  exactly once per pair per day), and a day run over ``SocketTransport``
  (real loopback TCP) must be bit-identical to ``LocalTransport``,
* ``pipelining``: the window-pipelined day — window W+1's offline phase
  (randomizer warm-up, garbling, OT extension) overlapped with window W's
  online phase under day-scoped sessions and the WAN cost profile, each
  pipeline slot charged ``max(online_W, offline_W+1)`` on the simulated
  clock, with the certificates (the script exits non-zero if any fails):
  pipelined runs must stay bit-identical to the unpipelined day at
  workers 1/2/4 over local *and* socket transports and under the tree
  topology, a seeded chaos run must retry back to the bit-identical
  clean day (a retried window cannot consume its successor's pre-staged
  material), and the day speedup must clear the 1.3x floor whenever at
  least 6 windows were sampled,
* ``chaos``: the chaos-engine survival matrix — one seeded deterministic
  fault plan (frame drops / reorders / duplicates / corruption, a
  mid-window pool drain, a SIGKILLed socket shard worker) executed across
  transport x session-scope x workers 1/2/4, with the zero-silent-wrong-
  answer certificates (the script exits non-zero if any fails): every
  cell must recover to the bit-identical fault-free day with all
  incidents classified and recovered, retry overhead must stay within
  the supervisor's budget, and a tampered-GC run must fail closed with
  an attributable ``integrity_violation`` (see ``docs/CHAOS.md``).

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
sys.path.insert(0, str(REPO_ROOT / "src"))

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
#: worker counts of the per-scheme sharding certificate.
GARBLING_WORKER_COUNTS = (1, 2, 4)

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
#: worker counts of the per-topology sharding certificate.
TOPOLOGY_WORKER_COUNTS = (1, 2, 4)

#: (home_count, sampled windows) per scale for the session-reuse day; the
#: speedup is *largest* at small samples (the fixed setup dominates), so
#: small scales still demonstrate the effect.
SESSION_SCALES = {
    "smoke": (10, 4),
    "quick": (12, 6),
    "default": (12, 6),
    "full": (16, 10),
}
#: worker counts of the day-scope sharding certificate.
SESSION_WORKER_COUNTS = (1, 2, 4)

#: (home_count, sampled windows) per scale for the pipelined day — shares
#: the session-reuse scales (both are day-scope experiments over the same
#: sampled day shape).
PIPELINE_SCALES = SESSION_SCALES
#: worker counts of the pipelining bit-identity certificate.
PIPELINE_WORKER_COUNTS = (1, 2, 4)
#: simulated-day speedup the pipelined schedule must clear — gated only
#: when the sampled day has at least MIN_PIPELINE_WINDOWS windows (the
#: anchor's un-hideable offline phase dominates shorter days).
MIN_PIPELINE_SPEEDUP = 1.3
MIN_PIPELINE_WINDOWS = 6

#: (home_count, sampled windows) per scale for the chaos survival matrix —
#: every cell runs the whole sampled day, so the matrix dominates the
#: section's cost and stays deliberately small.
CHAOS_SCALES = {
    "smoke": (8, 2),
    "quick": (10, 2),
    "default": (10, 3),
    "full": (12, 4),
}
#: worker counts of the chaos survival matrix.
CHAOS_WORKER_COUNTS = (1, 2, 4)
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
    benchmarks; ``outcomes_match`` certifies over random operand pairs
    that the pooled path, the classic path and the plaintext comparison
    all agree.
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
    how much of the lowered circuit is XOR-family (free).  Certificates:

    * **outcomes** — fresh pools of both schemes must agree with the
      plaintext comparison on random operands (labels and tables
      necessarily differ between schemes; the *outcome* is the invariant);
    * **sharding** — each scheme's sampled trading day must stay
      bit-identical across worker counts, and the schemes must stay
      economically identical to each other (same trades and prices —
      byte-level identity across schemes is impossible since halfgates
      ships fewer table bytes).
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
        worker_counts=GARBLING_WORKER_COUNTS,
        home_count=home_count,
        sample_count=sample_count,
    )
    shard_section = {
        result.scheme: {
            "windows_executed": result.windows_executed,
            "gc_fallbacks": result.gc_fallbacks,
            "gc_offline_seconds": round(result.gc_offline_seconds, 6),
            "garbled_traffic_bytes": result.garbled_traffic_bytes,
            "identical": {
                str(workers): ok for workers, ok in result.identical_by_workers.items()
            },
        }
        for result in invariance.per_scheme
    }
    return {
        "widths": widths_section,
        "shard_invariance": shard_section,
        "economics_identical_across_schemes": (
            invariance.economics_identical_across_schemes
        ),
    }


def run_multiexp_section() -> dict:
    """Build the ``multiexp`` report section.

    The fixed-base comb is certified against the builtin ``pow`` oracle
    (the ``matches_pow`` flag — the script exits non-zero if it is false)
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

    Two certificates ride along with the speedup numbers:

    * **identity** — every topology's encrypted sum must be bit-identical
      to the serial chain's (seeded encryption randomness, commutative
      Paillier product) and decrypt to the plaintext sum;
    * **sharding** — a sampled trading day under each topology must stay
      bit-identical (traces + merged stats, ``RunReport.identical_to``)
      across worker counts 1/2/4.
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
        topologies=("chain", "tree:2"), worker_counts=TOPOLOGY_WORKER_COUNTS
    )
    shard_section = {
        result.topology: {
            "windows_executed": result.windows_executed,
            "day_simulated_seconds": round(result.day_simulated_seconds, 6),
            "identical": {
                str(workers): ok for workers, ok in result.identical_by_workers.items()
            },
        }
        for result in invariance
    }
    return {"requesters": requesters_section, "shard_invariance": shard_section}


def run_session_section(scale: str) -> dict:
    """Build the ``session_reuse`` report section."""
    from repro.analysis.experiments import experiment_session_reuse

    home_count, sample_count = SESSION_SCALES[scale]
    obs = experiment_session_reuse(
        home_count=home_count,
        sample_count=sample_count,
        worker_counts=SESSION_WORKER_COUNTS,
    )
    return {
        "home_count": obs.home_count,
        "windows_executed": obs.windows_executed,
        "simulated_day_seconds_window_scope": round(obs.window_scope_day_seconds, 6),
        "simulated_day_seconds_day_scope": round(obs.day_scope_day_seconds, 6),
        "session_reuse_speedup": round(obs.session_reuse_speedup, 2),
        "gc_offline_seconds_window_scope": round(
            obs.window_scope_gc_offline_seconds, 6
        ),
        "gc_offline_seconds_day_scope": round(obs.day_scope_gc_offline_seconds, 6),
        "economics_identical": obs.economics_identical,
        "sessions_established": obs.sessions_established,
        "sessions_reused": obs.sessions_reused,
        "shard_invariance": {
            str(workers): ok
            for workers, ok in obs.day_scope_identical_by_workers.items()
        },
        "socket_transport_identical": obs.socket_transport_identical,
    }


def run_pipelining_section(scale: str) -> dict:
    """Build the ``pipelining`` report section.

    The same day-scoped sampled day runs with and without a
    ``WindowPipeline`` stage under the WAN cost profile (the paper's
    containers sit in homes on residential broadband — the regime where
    offline and online clocks are comparable and overlap pays).  The
    speedup is read off the per-window traces
    (``RunReport.pipelined_simulated_seconds`` vs.
    ``unpipelined_simulated_seconds``); the certificates — bit-identity at
    every worker count over both transports and the tree topology, and
    chaos recovery without touching pre-staged successor material — are
    gated in ``main``.
    """
    from repro.analysis.experiments import experiment_window_pipelining

    home_count, sample_count = PIPELINE_SCALES[scale]
    obs = experiment_window_pipelining(
        home_count=home_count,
        sample_count=sample_count,
        worker_counts=PIPELINE_WORKER_COUNTS,
    )
    return {
        "home_count": obs.home_count,
        "windows_executed": obs.windows_executed,
        "unpipelined_day_seconds": round(obs.unpipelined_day_seconds, 6),
        "pipelined_day_seconds": round(obs.pipelined_day_seconds, 6),
        "pipeline_speedup": round(obs.pipeline_speedup, 4),
        "hidden_offline_seconds": round(obs.hidden_offline_seconds, 6),
        "overlap_eligible_seconds": round(obs.overlap_eligible_seconds, 6),
        "pipeline_reserved": obs.pipeline_reserved,
        "identical_by_workers": {
            str(workers): ok for workers, ok in obs.identical_by_workers.items()
        },
        "socket_identical_by_workers": {
            str(workers): ok
            for workers, ok in obs.socket_identical_by_workers.items()
        },
        "tree_topology_identical": obs.tree_topology_identical,
        "chaos_incidents": obs.chaos_incidents,
        "chaos_recovered": obs.chaos_recovered,
        "chaos_recovered_identical": obs.chaos_recovered_identical,
    }


def run_chaos_section(scale: str) -> dict:
    """Build the ``chaos`` report section.

    A seeded deterministic fault plan (frame drops / reorders / duplicates
    / corruption, a mid-window pool drain, and — on the socket fan-out —
    a SIGKILLed shard worker) is executed across the survival matrix of
    transport x session-scope x workers.  Every cell must recover to the
    *bit-identical* fault-free day with every incident classified; a
    tampered-GC run must fail closed with an attributable
    ``integrity_violation``.  The script exits non-zero if any injected-
    fault run diverges after recovery, if any incident goes unrecovered,
    or if tampering does not abort — the zero-silent-wrong-answer gate.
    """
    from repro.analysis.experiments import experiment_chaos_matrix

    home_count, sample_count = CHAOS_SCALES[scale]
    obs = experiment_chaos_matrix(
        home_count=home_count,
        sample_count=sample_count,
        worker_counts=CHAOS_WORKER_COUNTS,
        chaos_seed=CHAOS_SEED,
    )
    return {
        "home_count": obs.home_count,
        "windows_executed": obs.windows_executed,
        "chaos_seed": obs.chaos_seed,
        "max_attempts": obs.max_attempts,
        "total_incidents": obs.total_incidents,
        "recovery_rate": round(obs.recovery_rate, 4),
        "retry_overhead": round(obs.retry_overhead, 4),
        "tamper_fail_closed": obs.tamper_fail_closed,
        "tamper_incident_classified": obs.tamper_incident_classified,
        "matrix": {
            f"{cell.transport}/{cell.session_scope}/workers={cell.workers}": {
                "incidents": cell.incidents,
                "worker_losses": cell.worker_losses,
                "retried_attempts": cell.retried_attempts,
                "recovered": cell.recovered,
                "recovered_identical": cell.recovered_identical,
            }
            for cell in obs.cells
        },
    }


def run_planner_section(scale: str) -> dict:
    """Build the ``planner`` report section.

    The deployment planner plans three fleet regimes (single LAN host,
    LAN cluster, WAN fleet of homes); each plan must match the
    exhaustive-enumeration oracle bit-for-bit and beat the naive
    chain/window/local default (> 1.0x predicted).  The first regime's
    emitted ``ProtocolConfig`` + ``ExecutionPlan`` then executes a real
    sampled day next to the naive default and must be economically
    identical — see ``docs/PLANNER.md``.
    """
    from repro.analysis.experiments import experiment_planner_sweep

    home_count, sample_count = PLANNER_SCALES[scale]
    obs = experiment_planner_sweep(
        home_count=home_count, sample_count=sample_count
    )
    return {
        "regimes": {
            regime.name: {
                "hosts": regime.hosts,
                "cores_per_host": regime.cores_per_host,
                "agents": regime.agents,
                "windows": regime.windows,
                "link": regime.link,
                "naive_day_seconds": round(regime.naive_day_seconds, 6),
                "planned_day_seconds": round(regime.planned_day_seconds, 6),
                "speedup": round(regime.speedup, 4),
                "oracle_match": regime.oracle_match,
                "candidates_evaluated": regime.candidates_evaluated,
                "candidates_pruned": regime.candidates_pruned,
                "space_size": regime.space_size,
                "planned": dict(regime.planned),
            }
            for regime in obs.regimes
        },
        "executed": {
            "regime": obs.executed.regime,
            "windows_executed": obs.executed.windows_executed,
            "economics_identical": obs.executed.economics_identical,
            "planned_day_seconds": round(obs.executed.planned_day_seconds, 6),
            "naive_day_seconds": round(obs.executed.naive_day_seconds, 6),
            "measured_speedup": round(obs.executed.measured_speedup, 4),
        },
    }


def run_parallel_day(scale: str, workers: int, background_refill: bool) -> dict:
    """Execute the sharded-day experiment and distill it for the report."""
    from repro.analysis.experiments import experiment_parallel_day

    home_count, sample_count, crypto_bits = PARALLEL_SCALES[scale]
    obs = experiment_parallel_day(
        home_count=home_count,
        sample_count=sample_count,
        workers=workers,
        crypto_key_size=crypto_bits,
        background_refill=background_refill,
    )
    return {
        "home_count": obs.home_count,
        "windows_executed": obs.windows_executed,
        "workers": obs.workers,
        "host_cpu_count": os.cpu_count(),
        "results_identical": obs.results_identical,
        "pool_fallbacks": obs.pool_fallbacks,
        "simulated_day_seconds_serial": round(obs.serial_simulated_seconds, 6),
        "simulated_day_seconds_parallel": round(obs.parallel_simulated_seconds, 6),
        "simulated_speedup": round(obs.simulated_speedup, 2),
        "wall_seconds_serial": round(obs.serial_wall_seconds, 3),
        "wall_seconds_parallel": round(obs.parallel_wall_seconds, 3),
        "wall_speedup": round(
            obs.serial_wall_seconds / obs.parallel_wall_seconds, 2
        )
        if obs.parallel_wall_seconds > 0
        else None,
        "background_refill": background_refill,
    }


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
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"wrote {args.output}")
    for label, per_param in report["speedups"].items():
        for param, ratio in sorted(per_param.items()):
            print(f"  {label}[{param}]: {ratio}x")
    failed = False
    for param, entry in sorted(report["comparison"].items()):
        print(
            f"  comparison[{param}b]: {entry['simulated_online_reduction']}x online "
            f"simulated reduction"
            + (
                f", {entry['wall_online_reduction']}x wall"
                if "wall_online_reduction" in entry
                else ""
            )
            + f", outcomes_match={entry['outcomes_match']}"
        )
        if not entry["outcomes_match"]:
            print(
                f"ERROR: pooled comparison outcomes diverged from the classic "
                f"path / plaintext at {param} bits — correctness regression",
                file=sys.stderr,
            )
            failed = True
    garbling = report["garbling"]
    for width, entry in sorted(
        garbling["widths"].items(), key=lambda item: int(item[0])
    ):
        print(
            f"  garbling[{width}b]: {entry['table_bytes_reduction']}x table bytes, "
            f"{entry['garble_time_reduction']}x garble wall-clock "
            f"(halfgates vs. classic), outcomes_match={entry['outcomes_match']}"
        )
        if not entry["outcomes_match"]:
            print(
                f"ERROR: classic and halfgates outcomes diverged from the "
                f"plaintext comparison at {width} bits — correctness regression",
                file=sys.stderr,
            )
            failed = True
    for name, cert in sorted(garbling["shard_invariance"].items()):
        flags = cert["identical"]
        print(
            f"  garbling[{name}]: shard-invariant at workers "
            + "/".join(sorted(flags, key=int))
            + f" = {all(flags.values())}, gc_fallbacks={cert['gc_fallbacks']}"
        )
        if not all(flags.values()):
            print(
                f"ERROR: {name}-scheme day diverged under sharding "
                f"({flags}) — determinism regression",
                file=sys.stderr,
            )
            failed = True
    if not garbling["economics_identical_across_schemes"]:
        print(
            "ERROR: classic and halfgates days diverged economically — "
            "the garbling scheme changed trades or prices",
            file=sys.stderr,
        )
        failed = True
    multiexp = report["multiexp"]
    for name in ("fixed_base_comb",):
        entry = multiexp[name]
        print(
            f"  multiexp[{name}]: matches_pow={entry['matches_pow']}, "
            f"{entry['speedup_vs_pow']}x vs. builtin pow "
            f"(backend={multiexp['backend']})"
        )
        if not entry["matches_pow"]:
            print(
                f"ERROR: {name} diverged from the builtin pow oracle — "
                "correctness regression",
                file=sys.stderr,
            )
            failed = True
    topology = report["aggregation_topology"]
    for count, entry in sorted(
        topology["requesters"].items(), key=lambda item: int(item[0])
    ):
        print(
            f"  aggregation_topology[n={count}]: "
            f"{entry['tree_vs_chain_speedup']}x tree:2 vs chain simulated, "
            f"sums_identical={entry['sums_identical']}"
        )
        if not entry["sums_identical"]:
            print(
                f"ERROR: tree and chain aggregation sums diverged at "
                f"{count} requesters — correctness regression",
                file=sys.stderr,
            )
            failed = True
    for name, cert in sorted(topology["shard_invariance"].items()):
        flags = cert["identical"]
        print(
            f"  aggregation_topology[{name}]: shard-invariant at workers "
            + "/".join(sorted(flags, key=int))
            + f" = {all(flags.values())}"
        )
        if not all(flags.values()):
            print(
                f"ERROR: {name}-topology day diverged under sharding "
                f"({flags}) — determinism regression",
                file=sys.stderr,
            )
            failed = True
    session = report["session_reuse"]
    print(
        f"  session_reuse[{session['windows_executed']} windows]: "
        f"{session['session_reuse_speedup']}x simulated day speedup (day vs. window "
        f"scope), sessions established/reused = {session['sessions_established']}/"
        f"{session['sessions_reused']}, socket_identical="
        f"{session['socket_transport_identical']}"
    )
    if not session["economics_identical"]:
        print(
            "ERROR: day-scoped sessions changed the economic results vs. window "
            "scope — correctness regression",
            file=sys.stderr,
        )
        failed = True
    if not all(session["shard_invariance"].values()):
        print(
            f"ERROR: day-scoped day diverged under sharding "
            f"({session['shard_invariance']}) — determinism regression",
            file=sys.stderr,
        )
        failed = True
    if not session["socket_transport_identical"]:
        print(
            "ERROR: SocketTransport day diverged from LocalTransport — "
            "transport regression",
            file=sys.stderr,
        )
        failed = True
    pipelining = report["pipelining"]
    print(
        f"  pipelining[{pipelining['windows_executed']} windows]: "
        f"{pipelining['pipeline_speedup']}x simulated day speedup "
        f"({pipelining['hidden_offline_seconds']}s offline hidden), "
        f"identical={all(pipelining['identical_by_workers'].values())}, "
        f"socket_identical={all(pipelining['socket_identical_by_workers'].values())}, "
        f"chaos_recovered_identical={pipelining['chaos_recovered_identical']}"
    )
    if not all(pipelining["identical_by_workers"].values()):
        print(
            f"ERROR: pipelined day diverged from the unpipelined day "
            f"({pipelining['identical_by_workers']}) — pipelining must move "
            "wall-clock work, never results or accounting",
            file=sys.stderr,
        )
        failed = True
    if not all(pipelining["socket_identical_by_workers"].values()):
        print(
            f"ERROR: pipelined socket day diverged "
            f"({pipelining['socket_identical_by_workers']}) — transport "
            "regression under pipelining",
            file=sys.stderr,
        )
        failed = True
    if not pipelining["tree_topology_identical"]:
        print(
            "ERROR: pipelined tree-topology day diverged from its "
            "unpipelined baseline — topology regression under pipelining",
            file=sys.stderr,
        )
        failed = True
    if not (pipelining["chaos_recovered"] and pipelining["chaos_recovered_identical"]):
        print(
            "ERROR: chaos-seeded pipelined day did not recover to the "
            "bit-identical clean day — a retried window consumed or "
            "double-charged pre-staged material",
            file=sys.stderr,
        )
        failed = True
    if (
        pipelining["windows_executed"] >= MIN_PIPELINE_WINDOWS
        and pipelining["pipeline_speedup"] < MIN_PIPELINE_SPEEDUP
    ):
        print(
            f"ERROR: pipelined day speedup {pipelining['pipeline_speedup']} "
            f"below the {MIN_PIPELINE_SPEEDUP}x floor at "
            f"{pipelining['windows_executed']} windows — perf regression",
            file=sys.stderr,
        )
        failed = True
    chaos = report["chaos"]
    print(
        f"  chaos[{len(chaos['matrix'])} cells]: {chaos['total_incidents']} incidents, "
        f"recovery_rate={chaos['recovery_rate']}, retry_overhead="
        f"{chaos['retry_overhead']}, tamper_fail_closed={chaos['tamper_fail_closed']}"
    )
    diverged = {
        name: cell
        for name, cell in chaos["matrix"].items()
        if not (cell["recovered"] and cell["recovered_identical"])
    }
    if diverged:
        print(
            f"ERROR: chaos cells diverged after recovery ({sorted(diverged)}) — "
            "a recovered run must be bit-identical to the fault-free day",
            file=sys.stderr,
        )
        failed = True
    if chaos["total_incidents"] == 0:
        print(
            "ERROR: the chaos matrix injected no faults — the survival "
            "certificate is vacuous",
            file=sys.stderr,
        )
        failed = True
    if chaos["recovery_rate"] < 1.0:
        print(
            f"ERROR: chaos recovery rate {chaos['recovery_rate']} < 1.0 — "
            "some incidents went unrecovered on completed runs",
            file=sys.stderr,
        )
        failed = True
    if chaos["retry_overhead"] > chaos["max_attempts"] - 1:
        print(
            f"ERROR: chaos retry overhead {chaos['retry_overhead']} exceeds the "
            f"retry budget ({chaos['max_attempts'] - 1} extra attempts/window)",
            file=sys.stderr,
        )
        failed = True
    if not (chaos["tamper_fail_closed"] and chaos["tamper_incident_classified"]):
        print(
            "ERROR: tampered GC material did not fail closed with a classified "
            "integrity_violation — silent-wrong-answer path",
            file=sys.stderr,
        )
        failed = True
    planner = report["planner"]
    for name, regime in sorted(planner["regimes"].items()):
        print(
            f"  planner[{name}]: {regime['speedup']}x predicted "
            f"(naive {regime['naive_day_seconds']}s -> planned "
            f"{regime['planned_day_seconds']}s), oracle_match="
            f"{regime['oracle_match']}, pruned "
            f"{regime['candidates_pruned']}/{regime['space_size']}"
        )
        if not regime["oracle_match"]:
            print(
                f"ERROR: planner[{name}] diverged from the exhaustive-"
                "enumeration oracle — the branch-and-bound search is not "
                "returning the argmin",
                file=sys.stderr,
            )
            failed = True
        if regime["speedup"] <= 1.0:
            print(
                f"ERROR: planner[{name}] predicted speedup "
                f"{regime['speedup']}x does not beat the naive default "
                "(must be > 1.0x in every swept regime)",
                file=sys.stderr,
            )
            failed = True
    executed = planner["executed"]
    print(
        f"  planner.executed[{executed['regime']}]: economics_identical="
        f"{executed['economics_identical']}, measured "
        f"{executed['measured_speedup']}x over {executed['windows_executed']} "
        "windows"
    )
    if not executed["economics_identical"]:
        print(
            "ERROR: the executed planned deployment is not economically "
            "identical to the naive default — the planner changed trades, "
            "not just clock charges",
            file=sys.stderr,
        )
        failed = True
    if executed["measured_speedup"] <= 1.0:
        print(
            f"ERROR: the executed planned deployment measured "
            f"{executed['measured_speedup']}x — it must beat the naive "
            "default on the runtime's own day clock",
            file=sys.stderr,
        )
        failed = True
    parallel = report.get("parallel_runner")
    if parallel:
        print(
            f"  parallel_day[{parallel['workers']} workers]: "
            f"{parallel['simulated_speedup']}x simulated day speedup, "
            f"{parallel['wall_speedup']}x host wall-clock "
            f"({parallel['host_cpu_count']} core(s) available), "
            f"identical={parallel['results_identical']}"
        )
        if not parallel["results_identical"]:
            print(
                "ERROR: sharded run diverged from the serial run "
                "(results_identical=false) — determinism regression",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
