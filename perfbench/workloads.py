"""The benchmark's declarations: workloads, end-to-end and per-layer metrics.

This module is the single source: ``BENCHMARK.json`` is
:func:`benchmark_json` written to disk (``python -m perfbench
--write-benchmark-json``) and the smoke test asserts the two are equal, so
the file cannot drift from what the driver emits.  Nothing here imports
``repro`` — the declarations are plain data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "Workload",
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "ROUNDS",
    "SMOKE_ROUNDS",
    "SMOKE_SECONDS",
    "TRACE_DAY_SEED",
    "workload_named",
    "benchmark_json",
]

#: How long one run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 20

#: Rounds per workload of a full set, and the shape of the ``--smoke`` set.
#: Fixed, so every line of ``history.jsonl`` is comparable with every other.
ROUNDS = 3
SMOKE_ROUNDS = 2
SMOKE_SECONDS = 0.2

#: ``TraceConfig.seed`` of the 720-window day every workload trades.  The
#: day is pinned; ``--seed`` feeds ``ProtocolConfig.seed`` (keys, nonces,
#: leader choice) and the phase of the window stride.  Varying the trace
#: seed changes the coalition mix of an 8-home day (27 % extreme-market
#: windows at seed 2020, none at seeds 1 and 2), which moved
#: ``window_p50_s`` by 10 % on identical code — the whole regression bound.
TRACE_DAY_SEED = 2020


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs.

    Attributes:
        name: the ``--workload`` value.
        why: one line on what the workload stresses.
        mode: ``"live"`` (the benchmark plays the minute clock and calls
            ``run_window`` itself) or ``"replay"`` (whole sharded days
            submitted back-to-back through ``run_windows_report``).
        homes: number of smart homes.
        config: ``ProtocolConfig`` fields other than ``seed``.
        windows_per_pass: market windows in the fixed list one pass (one
            replay) executes; a run repeats whole passes until
            ``--seconds`` have elapsed, so per-window counts repeat exactly.
    """

    name: str
    why: str
    mode: str
    homes: int
    config: Mapping[str, object] = field(default_factory=dict)
    windows_per_pass: int = 12

    def smoke(self) -> "Workload":
        """The seconds-long variant ``--smoke`` runs (128-bit keys, <= 6 windows)."""
        return replace(
            self,
            homes=min(self.homes, 16),
            config={**self.config, "key_size": 128},
            windows_per_pass=min(self.windows_per_pass, 6),
        )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="live_paillier_1024",
        why="paper's headline key size, per-agent keys: randomizer-pool pow dominates, net and GC do little",
        mode="live",
        homes=8,
        config={"key_size": 1024},
        windows_per_pass=8,
    ),
    Workload(
        name="live_gc_128",
        why="Paillier negligible at 128 bits: garbling + OT-extension batches dominate; cheapest windows, so orchestration overhead shows",
        mode="live",
        homes=8,
        config={"key_size": 128, "key_pool_size": 4},
        windows_per_pass=30,
    ),
    Workload(
        name="live_socket_128",
        why="64 homes over loopback TCP, day-scope sessions, binary tree: ~2000 stop-and-wait messages per window, net dominates",
        mode="live",
        homes=64,
        config={
            "key_size": 128,
            "key_pool_size": 4,
            "transport": "socket",
            "session_scope": "day",
            "aggregation_topology": "tree:2",
        },
        windows_per_pass=10,
    ),
    Workload(
        name="replay_sharded_512",
        why="research front door: 2 forked workers, pipelined reservations, halfgates, then on-chain settlement; only runtime+blockchain user",
        mode="replay",
        homes=16,
        config={
            "key_size": 512,
            "key_pool_size": 4,
            "session_scope": "day",
            "garbling_scheme": "halfgates",
        },
        windows_per_pass=16,
    ),
)

#: Worker processes of the replay workload (the box has two cores).
REPLAY_WORKERS = 2


def workload_named(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; expected one of {[w.name for w in WORKLOADS]}")


@dataclass(frozen=True)
class Metric:
    """A declared metric.

    ``bound`` is set for end-to-end metrics only.  Per-layer metrics carry a
    ``scope`` instead: ``"window"`` values are divided by the windows the
    traced passes executed (seconds or counts *per window*), ``"run"``
    values are reported once per run (one-time work, ratios).
    """

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    scope: str = "window"
    #: a per-layer count that two runs of the same code and seed must
    #: reproduce bit for bit (``--check-repeat`` compares these exactly).
    exact: bool = False


#: Bounds are sized to the host, not to taste: the box is a shared VM whose
#: speed moves under the neighbours' load (README, "Run shape").  Ten runs on
#: ten seeds, twice, in hours when the host ran 5-50 % slower than its best,
#: spread (quartile distance / median) by 0.03-0.11 on the timed metrics of
#: the live workloads and 0.09-0.13 on the replay after host scaling.
#: ``window_p90_s`` is a percentile of single repeats, not of medians, so it
#: keeps what a median removes: 0.15-0.17 on ``live_socket_128``, where one
#: window in eleven carries a 0.16 s full garbage collection and the 90th
#: percentile sits at the knee below that tail.  ``bytes_per_window`` moves
#: by up to 0.017 across seeds (the seed moves which windows a pass samples)
#: and memory by 0.013.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("windows_per_s", "1/s", "higher", 0.20),
    Metric("window_p50_s", "s", "lower", 0.20),
    Metric("window_p90_s", "s", "lower", 0.25),
    Metric("cpu_s_per_window", "s", "lower", 0.20),
    Metric("bytes_per_window", "B", "lower", 0.05),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
)


def _span(span: str, *suffixes: str, scope: str = "window") -> Tuple[Metric, ...]:
    units = {"self_s": "s", "total_s": "s", "calls": "count"}
    return tuple(
        Metric(
            f"{span}.{suffix}",
            units[suffix],
            "lower",
            scope=scope,
            exact=suffix == "calls" and scope == "window",
        )
        for suffix in suffixes
    )


def _count(
    name: str,
    unit: str = "count",
    better: str = "lower",
    scope: str = "window",
    exact: Optional[bool] = None,
) -> Tuple[Metric, ...]:
    if exact is None:
        exact = unit in ("count", "B") and scope == "window"
    return (Metric(name, unit, better, scope=scope, exact=exact),)


PER_LAYER: Tuple[Metric, ...] = (
    # data
    *_span("data.generate_dataset", "self_s", scope="run"),
    # core
    *_span("core.replay", "self_s", "calls"),
    # core.protocols
    *_span("protocols.window", "total_s", "self_s"),
    *_span("protocols.setup", "self_s"),
    *_span("protocols.p2_market_evaluation", "self_s"),
    *_span("protocols.p3_pricing", "self_s"),
    *_span("protocols.p4_distribution", "self_s"),
    *_span("protocols.aggregate", "self_s", "calls"),
    # crypto
    *_span("crypto.keygen", "self_s", "calls", scope="run"),
    *_span("crypto.accel.warm", "self_s", "calls"),
    *_count("crypto.accel.obfuscators_produced"),
    *_count("crypto.accel.pool_fallbacks"),
    *_span("crypto.accel.reserve", "self_s"),
    # How much the stage thread pre-stages depends on what the reservoirs
    # hold when it looks, i.e. on thread timing: counts, but not exact ones.
    *_count("crypto.accel.reserved", exact=False),
    *_count("crypto.accel.claimed", exact=False),
    *_span("crypto.paillier.encrypt", "self_s", "calls"),
    *_span("crypto.paillier.decrypt", "self_s", "calls"),
    *_span("crypto.paillier.homomorphic", "self_s", "calls"),
    *_span("crypto.gc_pool.warm", "self_s", "calls"),
    *_span("crypto.gc_pool.reserve", "self_s"),
    *_span("crypto.gc_pool.session", "self_s", "calls", scope="run"),
    *_span("crypto.gc.evaluate", "self_s", "calls"),
    *_count("crypto.gc.fallbacks"),
    *_count("crypto.gc.table_bytes", unit="B"),
    # net
    *_span("net.send", "self_s", "calls"),
    *_span("net.transport.deliver", "self_s", "calls"),
    *_span("net.transport.open", "self_s", "calls"),
    *_span("net.message.byte_size", "self_s", "calls"),
    *_count("net.messages"),
    *_count("net.bytes", unit="B"),
    *_count("net.session.established"),
    *_count("net.session.reused", better="higher"),
    # runtime (replay workload only; zero elsewhere)
    *_count("runtime.run.total_s", unit="s"),
    *_count("runtime.shard_wall_max_s", unit="s"),
    *_count("runtime.dispatch_overhead_s", unit="s"),
    *_count("runtime.shard_imbalance", unit="ratio", scope="run"),
    *_count("runtime.worker_rebuild_s", unit="s", scope="run"),
    *_span("runtime.pipeline.advance", "self_s"),
    *_count("runtime.pipeline.reserved", exact=False),
    *_count("runtime.pipeline.claimed", better="higher", exact=False),
    # blockchain (replay workload only)
    *_span("blockchain.settle_day", "self_s"),
    *_span("blockchain.verify", "self_s"),
    *_count("blockchain.blocks"),
    *_count("blockchain.transactions"),
    # model: what the cost model charged for the same windows
    *_count("model.charged_online_s", unit="s"),
    *_count("model.charged_offline_s", unit="s"),
    *_count("model.charged_gc_offline_s", unit="s"),
    *_count("model.wall_over_charged", unit="ratio", scope="run"),
    # host, trace
    *_count("host.calibration_s", unit="s", scope="run"),
    *_count("host.slowdown_share", unit="ratio", scope="run"),
    *_count("trace.overhead_share", unit="ratio", scope="run"),
)


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perfbench"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
