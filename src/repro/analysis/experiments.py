"""Experiment runners that regenerate the paper's tables and figures.

Each public function corresponds to one evaluation artifact of the paper
(Figures 4-6, Table I) and returns plain data structures that the benchmark
harness under ``benchmarks/`` prints and asserts on.  All experiments are
fully deterministic given their arguments (dataset seed, protocol seed).

The computational-performance experiments (Figure 5, Table I) execute the
*real* cryptographic protocol stack over the simulated network; runtime is
taken from the calibrated cost model (see :mod:`repro.net.costmodel` and
DESIGN.md for the substitution rationale), bandwidth from the actual bytes
of the serialized ciphertexts and protocol messages.  Because the full
720-window × 300-home private run is far too slow in pure Python, these
experiments execute a stratified sample of trading windows and report
per-window averages — the quantity the paper's figures are built from.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from ..core.params import PAPER_PARAMETERS, MarketParameters
from ..core.pem import PlainTradingEngine
from ..core.protocols import PrivateTradingEngine, ProtocolConfig
from ..core.results import TradingDayResult
from ..crypto.otext import shared_correlation
from ..data.profiles import ProfilePopulation
from ..data.traces import TraceConfig, TraceDataset, generate_dataset
from ..net.costmodel import CostModel
from .metrics import (
    CoalitionSizeSeries,
    CostComparison,
    GridInteractionComparison,
    PriceSeries,
    UtilityComparison,
    coalition_size_series,
    cost_comparison,
    grid_interaction_comparison,
    price_series,
    seller_utility_comparison,
)

__all__ = [
    "default_dataset",
    "run_plain_day",
    "experiment_fig4_coalitions",
    "experiment_fig6a_price",
    "experiment_fig6b_utility",
    "experiment_fig6c_cost",
    "experiment_fig6d_grid_interaction",
    "RuntimeObservation",
    "experiment_fig5_runtime",
    "BandwidthObservation",
    "experiment_table1_bandwidth",
    "ParallelDayObservation",
    "experiment_parallel_day",
    "TopologyAggregationObservation",
    "experiment_aggregation_topologies",
    "TopologyShardInvariance",
    "experiment_topology_shard_invariance",
    "SchemeInvarianceReport",
    "SchemeShardInvariance",
    "experiment_scheme_shard_invariance",
    "SessionReuseObservation",
    "experiment_session_reuse",
    "ChaosCellObservation",
    "ChaosMatrixObservation",
    "experiment_chaos_matrix",
    "PipeliningObservation",
    "experiment_window_pipelining",
    "PlannerRegimeObservation",
    "PlannerExecutedObservation",
    "PlannerSweepObservation",
    "experiment_planner_sweep",
    "sample_market_windows",
]

#: Dataset seed used throughout the evaluation (arbitrary but fixed).
DEFAULT_SEED = 2020
#: Number of trading windows in the paper's evaluation day (7 AM - 7 PM).
FULL_DAY_WINDOWS = 720


def _bench(**declaration):
    """Declare a ``BENCH_crypto.json`` key beyond name (the field's) and type
    (its annotation), for ``scripts/check_bench_schema.py``: ``digits``
    (rounding), ``certificate`` (must be true; so must every value of a
    mapping), ``floor`` (``>=``; ``>`` with ``strict``; in force only
    ``when=(sibling, minimum)``), ``budget=sibling`` (``<= sibling - 1``)
    and ``min_len`` (of a mapping).
    """
    return field(metadata=declaration)


@lru_cache(maxsize=8)
def default_dataset(home_count: int = 300, window_count: int = FULL_DAY_WINDOWS,
                    seed: int = DEFAULT_SEED) -> TraceDataset:
    """The synthetic Smart*-like dataset used by all experiments (cached)."""
    return generate_dataset(
        TraceConfig(home_count=home_count, window_count=window_count, seed=seed)
    )


@lru_cache(maxsize=16)
def run_plain_day(
    home_count: int = 200,
    window_count: int = FULL_DAY_WINDOWS,
    seed: int = DEFAULT_SEED,
) -> TradingDayResult:
    """Run the plaintext engine over a full day (cached across experiments)."""
    dataset = default_dataset(max(home_count, 300) if home_count <= 300 else home_count,
                              window_count, seed)
    engine = PlainTradingEngine(PAPER_PARAMETERS)
    return engine.run_day(dataset, home_count=home_count)


# ---------------------------------------------------------------------------
# Energy-trading performance experiments (Figures 4 and 6).
# ---------------------------------------------------------------------------


def experiment_fig4_coalitions(
    home_count: int = 200, window_count: int = FULL_DAY_WINDOWS, seed: int = DEFAULT_SEED
) -> CoalitionSizeSeries:
    """Figure 4: seller/buyer coalition sizes over the trading day."""
    return coalition_size_series(run_plain_day(home_count, window_count, seed))


def experiment_fig6a_price(
    home_count: int = 200,
    window_count: int = FULL_DAY_WINDOWS,
    seed: int = DEFAULT_SEED,
    params: MarketParameters = PAPER_PARAMETERS,
) -> PriceSeries:
    """Figure 6(a): the PEM trading price over the day vs. the fixed prices."""
    return price_series(run_plain_day(home_count, window_count, seed), params)


def experiment_fig6b_utility(
    preference_values: Sequence[float] = (20.0, 40.0),
    home_count: int = 100,
    window_count: int = FULL_DAY_WINDOWS,
    seed: int = DEFAULT_SEED,
) -> Dict[float, UtilityComparison]:
    """Figure 6(b): utility of a representative seller for fixed ``k``.

    The paper fixes the preference parameter (k = 20 and k = 40) for all
    sellers and tracks two representative sellers' utility with and without
    PEM.  We replicate that by overriding every home's ``k`` and following
    the home with the largest PV capacity (a seller in most market windows).
    """
    results: Dict[float, UtilityComparison] = {}
    for preference in preference_values:
        dataset = generate_dataset(
            TraceConfig(
                home_count=home_count,
                window_count=window_count,
                seed=seed,
                population=ProfilePopulation(
                    preference_k_range=(preference, preference + 1e-9)
                ),
            )
        )
        day = PlainTradingEngine(PAPER_PARAMETERS).run_day(dataset)
        representative = max(dataset.homes, key=lambda h: h.profile.pv_capacity_kw)
        results[preference] = seller_utility_comparison(day, representative.profile.home_id)
    return results


def experiment_fig6c_cost(
    home_counts: Sequence[int] = (100, 200),
    window_count: int = FULL_DAY_WINDOWS,
    seed: int = DEFAULT_SEED,
) -> Dict[int, CostComparison]:
    """Figure 6(c): buyer-coalition total cost with and without PEM."""
    return {
        count: cost_comparison(run_plain_day(count, window_count, seed))
        for count in home_counts
    }


def experiment_fig6d_grid_interaction(
    home_count: int = 200, window_count: int = FULL_DAY_WINDOWS, seed: int = DEFAULT_SEED
) -> GridInteractionComparison:
    """Figure 6(d): energy exchanged with the main grid, with/without PEM."""
    return grid_interaction_comparison(run_plain_day(home_count, window_count, seed))


# ---------------------------------------------------------------------------
# Computational-performance experiments (Figure 5, Table I).
# ---------------------------------------------------------------------------


def sample_market_windows(
    dataset: TraceDataset,
    home_count: int,
    sample_count: int,
    require_market: bool = True,
) -> List[int]:
    """Pick ``sample_count`` windows spread across the day.

    When ``require_market`` is set, only windows in which a PEM market forms
    are eligible (the protocol has nothing to do otherwise); the plaintext
    engine is used to find them cheaply.
    """
    day = PlainTradingEngine(PAPER_PARAMETERS).run_day(dataset, home_count=home_count)
    eligible = [
        w.window
        for w in day.windows
        if not require_market or w.case.value != "no_market"
    ]
    if not eligible:
        return []
    if len(eligible) <= sample_count:
        return eligible
    step = len(eligible) / sample_count
    return [eligible[int(i * step)] for i in range(sample_count)]


@dataclass(frozen=True)
class RuntimeObservation:
    """One (agent count, key size) runtime measurement.

    Attributes:
        home_count: number of agents.
        key_size: Paillier key size the cost model was calibrated for.
        average_window_seconds: mean simulated per-window protocol runtime
            (the *online* critical path).
        total_day_seconds: extrapolated total runtime for a full 720-window
            day (the y axis of Fig. 5(b)/(c)).
        average_offline_seconds: mean per-window idle-time precomputation
            (randomizer-pool warm-up) — the offline half of the
            offline/online split, pipelined off the critical path.
        sampled_windows: how many windows were actually executed.
    """

    home_count: int
    key_size: int
    average_window_seconds: float
    total_day_seconds: float
    sampled_windows: int
    average_offline_seconds: float = 0.0


def experiment_fig5_runtime(
    home_counts: Sequence[int] = (100, 200, 300),
    key_sizes: Sequence[int] = (512, 1024, 2048),
    sample_count: int = 6,
    window_count: int = FULL_DAY_WINDOWS,
    seed: int = DEFAULT_SEED,
    crypto_key_size: int = 256,
    workers: int = 1,
) -> List[RuntimeObservation]:
    """Figure 5(a)-(c): protocol runtime vs. agents, windows and key size.

    The protocols are executed with real (small-key) cryptography to obtain
    exact operation and message counts; the runtime reported is the cost
    model's critical-path time for the *target* key size.  This mirrors the
    paper's observation that the key size does not affect the runtime when
    encryption/decryption are pipelined during idle time.

    Args:
        home_counts: agent counts to sweep (Fig. 5(a)/(c)).
        key_sizes: cost-model key sizes to sweep (Fig. 5(b)/(c)).
        sample_count: how many market windows to execute per configuration.
        window_count: length of the trading day being extrapolated to.
        seed: dataset seed.
        crypto_key_size: actual Paillier key size used for execution.
        workers: shard the sampled windows across this many worker
            processes (observations are bit-identical to ``workers=1``;
            only the host wall-clock changes).
    """
    observations: List[RuntimeObservation] = []
    dataset = default_dataset(max(max(home_counts), 300), window_count, seed)
    for home_count in home_counts:
        windows = sample_market_windows(dataset, home_count, sample_count)
        for key_size in key_sizes:
            engine = PrivateTradingEngine(
                params=PAPER_PARAMETERS,
                config=ProtocolConfig(
                    key_size=crypto_key_size, key_pool_size=4, seed=7
                ),
                cost_model=CostModel.for_key_size(key_size),
            )
            traces = engine.run_windows(
                dataset, windows, home_count=home_count, workers=workers
            )
            if traces:
                average = sum(t.simulated_runtime_seconds for t in traces) / len(traces)
                offline = sum(t.offline_seconds for t in traces) / len(traces)
            else:
                average = 0.0
                offline = 0.0
            observations.append(
                RuntimeObservation(
                    home_count=home_count,
                    key_size=key_size,
                    average_window_seconds=average,
                    total_day_seconds=average * window_count,
                    sampled_windows=len(traces),
                    average_offline_seconds=offline,
                )
            )
    return observations


@dataclass(frozen=True)
class ParallelDayObservation:
    """A Fig. 5-style day executed serially and sharded across workers.

    Attributes:
        home_count: number of agents.
        windows_executed: how many market windows were actually run.
        workers: worker processes of the sharded run.
        host_cpu_count: the real core count bounding ``wall_speedup``.
        results_identical: whether the sharded run reproduced the serial
            ``WindowResult``s and merged stats bit-for-bit (it must).
        pool_fallbacks: merged drained-pool fallback count (0 means the
            offline warm-up fully covered the online encryptions).
        simulated_day_seconds_serial: simulated day runtime executing the
            windows back-to-back (the repo's canonical runtime metric —
            see :mod:`repro.net.costmodel` for why host wall-clock of the
            in-process simulation is not).
        simulated_day_seconds_parallel: simulated day runtime under the
            plan (slowest shard).
        simulated_speedup: ratio of the two (near-linear in ``workers``
            since windows are independent).
        wall_seconds_serial / wall_seconds_parallel / wall_speedup: host
            wall-clock of both runs and their ratio, timed with the base-OT
            correlation already established (neither side pays for it).
        background_refill: whether reservoir refill threads ran.
    """

    home_count: int
    windows_executed: int
    workers: int
    host_cpu_count: Optional[int]
    results_identical: bool = _bench(certificate=True)
    pool_fallbacks: int
    simulated_day_seconds_serial: float = _bench(digits=6)
    simulated_day_seconds_parallel: float = _bench(digits=6)
    simulated_speedup: float = _bench(digits=2)
    wall_seconds_serial: float = _bench(digits=3)
    wall_seconds_parallel: float = _bench(digits=3)
    wall_speedup: Optional[float] = _bench(digits=2)
    background_refill: bool


def experiment_parallel_day(
    home_count: int = 24,
    sample_count: int = 8,
    workers: int = 4,
    crypto_key_size: int = 128,
    key_size: int = 1024,
    window_count: int = FULL_DAY_WINDOWS,
    seed: int = DEFAULT_SEED,
    background_refill: bool = False,
    aggregation_topology: str = "chain",
) -> ParallelDayObservation:
    """Run the same sampled day serially and sharded; compare and time both.

    This is the scaling experiment behind the ``parallel_runner`` section of
    ``BENCH_crypto.json``: it certifies that sharding is result-preserving
    and reports the day-runtime speedup on both clocks.
    ``aggregation_topology`` selects the encrypted-sum collection shape
    (the sharding certificate must hold for every topology).
    """

    config = ProtocolConfig(
        key_size=crypto_key_size,
        key_pool_size=4,
        seed=7,
        aggregation_topology=aggregation_topology,
    )

    def build_engine() -> PrivateTradingEngine:
        return PrivateTradingEngine(
            params=PAPER_PARAMETERS,
            config=config,
            cost_model=CostModel.for_key_size(key_size),
        )

    dataset = default_dataset(max(home_count, 300), window_count, seed)
    windows = sample_market_windows(dataset, home_count, sample_count)
    # Like with like: the once-per-process base OTs (~0.6 s at kappa 128)
    # happen before either wall is timed.  Left lazy, a cold process would
    # charge them to the serial side only — the sharded side's workers
    # inherit the correlation through fork.
    shared_correlation(config.ot_extension_kappa)
    serial = build_engine().run_windows_report(
        dataset, windows, home_count=home_count, workers=1
    )
    parallel = build_engine().run_windows_report(
        dataset,
        windows,
        home_count=home_count,
        workers=workers,
        background_refill=background_refill,
    )
    identical = serial.identical_to(parallel)
    return ParallelDayObservation(
        home_count=home_count,
        windows_executed=len(parallel.traces),
        workers=parallel.plan.workers,
        host_cpu_count=os.cpu_count(),
        results_identical=identical,
        pool_fallbacks=parallel.stats.pool_fallbacks,
        simulated_day_seconds_serial=parallel.serial_simulated_seconds,
        simulated_day_seconds_parallel=parallel.parallel_simulated_seconds,
        simulated_speedup=parallel.simulated_speedup,
        wall_seconds_serial=serial.wall_seconds,
        wall_seconds_parallel=parallel.wall_seconds,
        wall_speedup=(
            serial.wall_seconds / parallel.wall_seconds
            if parallel.wall_seconds > 0
            else None
        ),
        background_refill=background_refill,
    )


@dataclass(frozen=True)
class TopologyAggregationObservation:
    """One (requester count, topology) aggregation measurement.

    Attributes:
        requesters: number of contributors to the encrypted sum.
        topology: aggregation-topology name (``chain``, ``tree:2``, ...).
        simulated_seconds: critical-path simulated time of the one
            aggregation (latency-hiding model: one message time per
            schedule layer, delivery hop included).
        critical_path_rounds: the schedule's depth — O(n) for the chain,
            O(log n) for trees.
        hops: messages the aggregation sent (topology-invariant: one per
            contributor, so trees move nothing extra onto the wire).
        encrypted_sum: the final ciphertext as an integer.  Encryption
            randomness is seeded and pools are disabled for this
            experiment, so the value is **bit-identical across
            topologies** — the identity certificate compares it against
            the chain's.
        decrypted_sum: the decrypted aggregate.
        expected_sum: the plaintext sum of the contributed values.
        offline_seconds: idle-time precompute the aggregation charged
            (identically zero here — pools are disabled — and asserted
            topology-invariant either way).
    """

    requesters: int
    topology: str
    simulated_seconds: float
    critical_path_rounds: int
    hops: int
    encrypted_sum: int
    decrypted_sum: int
    expected_sum: int
    offline_seconds: float


def experiment_aggregation_topologies(
    requester_counts: Sequence[int] = (8, 32, 128),
    topologies: Sequence[str] = ("chain", "tree:2", "tree:4"),
    crypto_key_size: int = 128,
    cost_model_key_size: int = 1024,
    seed: int = 11,
) -> List[TopologyAggregationObservation]:
    """Measure one encrypted-sum aggregation per (requester count, topology).

    This is the experiment behind the ``aggregation_topology`` section of
    ``BENCH_crypto.json``.  For each requester count a synthetic window is
    built with ``n`` buyer-requesters aggregating toward one seller, and
    the *same* aggregation is executed under every topology:

    * encryption randomness comes from the seeded protocol RNG (randomizer
      pools are disabled), and each contributor encrypts exactly once in
      contributor order — so the per-contributor ciphertexts, and by
      commutativity of the Paillier product their aggregate, are
      **bit-identical across topologies**;
    * only the simulated communication time differs: the chain pays one
      message time per contributor, a k-ary tree one per layer
      (``ceil(log_k n) + 1``), the ~O(n / log n) critical-path win.
    """
    from ..core.agent import AgentWindowState
    from ..core.coalition import form_coalitions
    from ..core.protocols import ProtocolContext
    from ..core.protocols.aggregation import aggregate
    from ..core.protocols.topology import resolve_topology
    from ..net.message import MessageKind
    from ..net.network import SimulatedNetwork
    import random as _random

    observations: List[TopologyAggregationObservation] = []
    for count in requester_counts:
        states = [
            AgentWindowState(
                agent_id=f"req{i:04d}",
                window=0,
                generation_kwh=0.0,
                load_kwh=0.2 + 0.01 * i,
                battery_kwh=0.0,
                battery_loss_coefficient=0.9,
                preference_k=150.0,
            )
            for i in range(count)
        ] + [
            AgentWindowState(
                agent_id="leader",
                window=0,
                generation_kwh=1.0,
                load_kwh=0.0,
                battery_kwh=0.0,
                battery_loss_coefficient=0.9,
                preference_k=150.0,
            )
        ]
        for topology_name in topologies:
            topology = resolve_topology(topology_name)
            coalitions = form_coalitions(0, states)
            network = SimulatedNetwork(
                cost_model=CostModel.for_key_size(cost_model_key_size)
            )
            context = ProtocolContext(
                coalitions=coalitions,
                network=network,
                config=ProtocolConfig(
                    key_size=crypto_key_size,
                    key_pool_size=2,
                    seed=seed,
                    use_randomizer_pools=False,
                    use_comparison_pool=False,
                    aggregation_topology=topology_name,
                ),
                params=PAPER_PARAMETERS,
                # staticcheck: ignore[csprng-default] -- topology experiments
                # must replay bit-identically across worker counts; no key
                # material is minted here (pools are disabled in this config).
                rng=_random.Random(seed),
            )
            leader = context.sellers[0]
            requesters = context.buyers
            values = [7 + 3 * i for i in range(len(requesters))]
            start_seconds = network.stats.simulated_seconds
            start_offline = network.stats.offline_seconds
            outcome = aggregate(
                context,
                requesters,
                values,
                leader.public_key,
                MessageKind.MARKET_AGGREGATE,
                final_recipient=leader,
                topology=topology,
            )
            observations.append(
                TopologyAggregationObservation(
                    requesters=count,
                    topology=topology.name,
                    simulated_seconds=network.stats.simulated_seconds - start_seconds,
                    critical_path_rounds=outcome.schedule.critical_path_depth,
                    hops=outcome.schedule.merge_hop_count + 1,
                    encrypted_sum=outcome.ciphertext.value,
                    decrypted_sum=leader.private_key.decrypt(outcome.ciphertext),
                    expected_sum=sum(values),
                    offline_seconds=network.stats.offline_seconds - start_offline,
                )
            )
    return observations


@dataclass(frozen=True)
class TopologyShardInvariance:
    """Sharded-run determinism certificate for one aggregation topology.

    Attributes:
        windows_executed: market windows in the sampled day.
        day_simulated_seconds: serial simulated day runtime under the
            topology (trees beat the chain here as coalitions grow).
        identical: worker count → whether the run reproduced the serial
            baseline's traces and merged stats bit for bit (``workers=1``
            certifies run-to-run determinism of two fresh engines; higher
            counts certify shard invariance).
    """

    windows_executed: int
    day_simulated_seconds: float = _bench(digits=6)
    identical: Dict[int, bool] = _bench(certificate=True)


def experiment_topology_shard_invariance(
    topologies: Sequence[str] = ("chain", "tree:2"),
    worker_counts: Sequence[int] = (1, 2, 4),
    home_count: int = 12,
    sample_count: int = 4,
    crypto_key_size: int = 128,
    key_size: int = 1024,
    window_count: int = FULL_DAY_WINDOWS,
    seed: int = DEFAULT_SEED,
) -> Dict[str, TopologyShardInvariance]:
    """Certify that every topology stays bit-identical under sharding.

    For each topology a sampled day is executed serially (the baseline)
    and again at each worker count; ``RunReport.identical_to`` — traces,
    merged stats, both offline clocks, fallback counters and the
    per-topology hop/round counters — must hold for all of them.  The
    ``aggregation_topology`` bench section embeds the result so a
    regression in topology/runtime interplay fails the bench run.
    """

    def build_engine(topology: str) -> PrivateTradingEngine:
        return PrivateTradingEngine(
            params=PAPER_PARAMETERS,
            config=ProtocolConfig(
                key_size=crypto_key_size,
                key_pool_size=4,
                seed=7,
                aggregation_topology=topology,
            ),
            cost_model=CostModel.for_key_size(key_size),
        )

    dataset = default_dataset(max(home_count, 300), window_count, seed)
    windows = sample_market_windows(dataset, home_count, sample_count)
    results: Dict[str, TopologyShardInvariance] = {}
    for topology in topologies:
        baseline = build_engine(topology).run_windows_report(
            dataset, windows, home_count=home_count, workers=1
        )
        identical: Dict[int, bool] = {}
        for workers in worker_counts:
            report = build_engine(topology).run_windows_report(
                dataset, windows, home_count=home_count, workers=workers
            )
            identical[workers] = baseline.identical_to(report)
        results[topology] = TopologyShardInvariance(
            windows_executed=len(baseline.traces),
            day_simulated_seconds=baseline.serial_simulated_seconds,
            identical=identical,
        )
    return results


@dataclass(frozen=True)
class SchemeShardInvariance:
    """One garbling scheme's sampled day plus its sharding certificates.

    Attributes:
        windows_executed: market windows in the sampled day.
        gc_fallbacks: merged drained-comparison-pool fallbacks (0 means
            every comparison evaluated a prepared instance of this scheme).
        gc_offline_seconds: the serial day's garbled-circuit offline clock.
        garbled_traffic_bytes: the day's out-of-band bytes (garbled tables
            + OT label traffic — the component halfgates shrinks).
        identical: worker count → ``RunReport.identical_to`` against the
            scheme's own serial baseline.
    """

    windows_executed: int
    gc_fallbacks: int
    gc_offline_seconds: float = _bench(digits=6)
    garbled_traffic_bytes: int
    identical: Dict[int, bool] = _bench(certificate=True)


@dataclass(frozen=True)
class SchemeInvarianceReport:
    """All schemes' sharding certificates (keyed by scheme name:
    ``classic``, ``halfgates``) plus the cross-scheme one.

    ``economics_identical_across_schemes`` certifies that every scheme's
    serial day produced *economically identical* windows (same trades,
    prices, coalitions).  Full bit-identity across schemes is impossible by
    design — halfgates ships fewer table bytes, so traffic stats differ —
    which is exactly why outcome identity is the certificate (the same
    standing invariant the bench's ``outcomes_match`` uses).
    """

    shard_invariance: Dict[str, SchemeShardInvariance]
    economics_identical_across_schemes: bool = _bench(certificate=True)


def experiment_scheme_shard_invariance(
    schemes: Sequence[str] = ("classic", "halfgates"),
    worker_counts: Sequence[int] = (1, 2, 4),
    home_count: int = 12,
    sample_count: int = 4,
    crypto_key_size: int = 128,
    key_size: int = 1024,
    window_count: int = FULL_DAY_WINDOWS,
    seed: int = DEFAULT_SEED,
) -> SchemeInvarianceReport:
    """Certify that every garbling scheme stays bit-identical under sharding.

    For each scheme the same sampled day runs serially (the baseline) and
    again at each worker count; ``RunReport.identical_to`` must hold for all
    of them.  Worker processes rebuild their engines from the serialized
    :class:`ProtocolConfig`, so this also proves ``garbling_scheme``
    round-trips through the sharding plan.  Across schemes the serial days
    must be economically identical (outcome identity, not byte identity).
    """

    def build_engine(scheme: str) -> PrivateTradingEngine:
        return PrivateTradingEngine(
            params=PAPER_PARAMETERS,
            config=ProtocolConfig(
                key_size=crypto_key_size,
                key_pool_size=4,
                seed=7,
                garbling_scheme=scheme,
            ),
            cost_model=CostModel.for_key_size(key_size),
        )

    dataset = default_dataset(max(home_count, 300), window_count, seed)
    windows = sample_market_windows(dataset, home_count, sample_count)
    results: Dict[str, SchemeShardInvariance] = {}
    baselines = []
    for scheme in schemes:
        baseline = build_engine(scheme).run_windows_report(
            dataset, windows, home_count=home_count, workers=1
        )
        baselines.append(baseline)
        identical: Dict[int, bool] = {}
        for workers in worker_counts:
            report = build_engine(scheme).run_windows_report(
                dataset, windows, home_count=home_count, workers=workers
            )
            identical[workers] = baseline.identical_to(report)
        results[scheme] = SchemeShardInvariance(
            windows_executed=len(baseline.traces),
            gc_fallbacks=baseline.stats.gc_fallbacks,
            gc_offline_seconds=baseline.stats.gc_offline_seconds,
            garbled_traffic_bytes=baseline.stats.bytes_by_kind.get("out_of_band", 0),
            identical=identical,
        )
    reference = baselines[0]
    economics_identical = all(
        len(reference.traces) == len(other.traces)
        and all(
            a.result.economically_equal(b.result)
            for a, b in zip(reference.traces, other.traces)
        )
        for other in baselines[1:]
    )
    return SchemeInvarianceReport(
        shard_invariance=results,
        economics_identical_across_schemes=economics_identical,
    )


@dataclass(frozen=True)
class SessionReuseObservation:
    """Window-scoped vs. day-scoped sessions over the same sampled day.

    This is the experiment behind the ``session_reuse`` section of
    ``BENCH_crypto.json``.  The same sampled trading day is executed under
    ``session_scope="window"`` (the seed behavior: every market window
    re-pays the fixed 0.5 s coordination setup and a fresh base-OT
    session) and ``session_scope="day"`` (both paid once, at the day's
    anchor window), and three certificates ride along with the speedup:

    * **economics** — the two scopes must produce economically identical
      ``WindowResult``s (session amortization moves clock charges, never
      trades);
    * **sharding** — the day-scoped run must stay bit-identical
      (``RunReport.identical_to``) across worker counts, with sessions
      established exactly once per pair per day no matter how windows are
      sharded;
    * **transport** — a day-scoped run over :class:`SocketTransport`
      (messages crossing real loopback TCP, shards fanned out over
      sockets) must be bit-identical to the :class:`LocalTransport` run.

    Attributes:
        home_count: number of agents.
        windows_executed: market windows in the sampled day.
        simulated_day_seconds_window_scope: simulated serial day runtime
            (online critical path) paying the session costs every window.
        simulated_day_seconds_day_scope: the same day with day-scoped
            sessions.
        session_reuse_speedup: ratio of the two — the amortization win,
            largest at small window counts where the fixed setup
            dominates (the floor is conservative for that reason).
        gc_offline_seconds_window_scope / gc_offline_seconds_day_scope:
            the offline clock's base-OT side of the same amortization.
        economics_identical: economic-identity certificate.
        sessions_established / sessions_reused: the day-scoped run's
            merged session counters (establishments must equal the number
            of distinct session pairs — once per pair per day).
        shard_invariance: worker count → sharding certificate for the
            day-scoped run.
        socket_transport_identical: transport certificate.
    """

    home_count: int
    windows_executed: int
    simulated_day_seconds_window_scope: float = _bench(digits=6)
    simulated_day_seconds_day_scope: float = _bench(digits=6)
    session_reuse_speedup: float = _bench(digits=2, floor=2.0)
    gc_offline_seconds_window_scope: float = _bench(digits=6)
    gc_offline_seconds_day_scope: float = _bench(digits=6)
    economics_identical: bool = _bench(certificate=True)
    sessions_established: int
    sessions_reused: int
    shard_invariance: Dict[int, bool] = _bench(certificate=True)
    socket_transport_identical: bool = _bench(certificate=True)


def experiment_session_reuse(
    home_count: int = 12,
    sample_count: int = 6,
    worker_counts: Sequence[int] = (1, 2, 4),
    crypto_key_size: int = 128,
    key_size: int = 1024,
    window_count: int = FULL_DAY_WINDOWS,
    seed: int = DEFAULT_SEED,
) -> SessionReuseObservation:
    """Measure the day-scoped session amortization and its certificates.

    Every trading window of the seed implementation paid the fixed
    session setup (``CostModel.per_window_setup_seconds``) plus a fresh
    OT-extension base-OT session.  With ``session_scope="day"`` both are
    paid once at the day's anchor window; at small window sizes this
    dominates the online critical path, so the simulated-day speedup is
    multi-x.  See ``docs/SESSIONS.md``.
    """

    def build_engine(scope: str, transport: str = "local") -> PrivateTradingEngine:
        return PrivateTradingEngine(
            params=PAPER_PARAMETERS,
            config=ProtocolConfig(
                key_size=crypto_key_size,
                key_pool_size=4,
                seed=7,
                session_scope=scope,
                transport=transport,
            ),
            cost_model=CostModel.for_key_size(key_size),
        )

    dataset = default_dataset(max(home_count, 300), window_count, seed)
    windows = sample_market_windows(dataset, home_count, sample_count)

    window_scope = build_engine("window").run_windows_report(
        dataset, windows, home_count=home_count, workers=1
    )
    day_scope = build_engine("day").run_windows_report(
        dataset, windows, home_count=home_count, workers=1
    )

    economics_identical = len(window_scope.traces) == len(day_scope.traces) and all(
        a.result.economically_equal(b.result)
        for a, b in zip(window_scope.traces, day_scope.traces)
    )

    identical_by_workers: Dict[int, bool] = {}
    for workers in worker_counts:
        report = build_engine("day").run_windows_report(
            dataset, windows, home_count=home_count, workers=workers
        )
        identical_by_workers[workers] = day_scope.identical_to(report)

    socket_run = build_engine("day", transport="socket").run_windows_report(
        dataset, windows, home_count=home_count, workers=1
    )
    socket_identical = day_scope.identical_to(socket_run)

    window_seconds = window_scope.serial_simulated_seconds
    day_seconds = day_scope.serial_simulated_seconds
    return SessionReuseObservation(
        home_count=home_count,
        windows_executed=len(day_scope.traces),
        simulated_day_seconds_window_scope=window_seconds,
        simulated_day_seconds_day_scope=day_seconds,
        session_reuse_speedup=(
            window_seconds / day_seconds if day_seconds > 0 else 1.0
        ),
        gc_offline_seconds_window_scope=window_scope.stats.gc_offline_seconds,
        gc_offline_seconds_day_scope=day_scope.stats.gc_offline_seconds,
        economics_identical=economics_identical,
        sessions_established=day_scope.stats.sessions_established,
        sessions_reused=day_scope.stats.sessions_reused,
        shard_invariance=identical_by_workers,
        socket_transport_identical=socket_identical,
    )


@dataclass(frozen=True)
class BandwidthObservation:
    """One (key size, window span) bandwidth measurement (Table I).

    Attributes:
        key_size: actual Paillier key size used for the ciphertexts.
        window_span: the "m" column of Table I.
        average_window_megabytes: mean protocol traffic per trading window
            across all smart homes, in MB (the paper's reported quantity).
        per_home_kilobytes: the same traffic divided by the number of homes.
        sampled_windows: how many windows were actually executed.
    """

    key_size: int
    window_span: int
    average_window_megabytes: float
    per_home_kilobytes: float
    sampled_windows: int


def experiment_table1_bandwidth(
    key_sizes: Sequence[int] = (512, 1024, 2048),
    window_spans: Sequence[int] = (300, 360, 420, 480, 540, 600, 660, 720),
    home_count: int = 200,
    samples_per_key_size: Optional[Dict[int, int]] = None,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> List[BandwidthObservation]:
    """Table I: average per-window bandwidth for different key sizes.

    Ciphertext payloads are produced with the *actual* key size, so the
    measured bytes scale exactly as a deployment's would.  Because the
    per-window traffic is essentially independent of which market window is
    measured, a small stratified sample is executed per key size and its
    per-window average is reported for every value of ``m`` (matching the
    flat rows of Table I).
    """
    samples_per_key_size = samples_per_key_size or {512: 3, 1024: 2, 2048: 1}
    dataset = default_dataset(max(home_count, 300), FULL_DAY_WINDOWS, seed)
    observations: List[BandwidthObservation] = []
    for key_size in key_sizes:
        sample_count = samples_per_key_size.get(key_size, 2)
        windows = sample_market_windows(dataset, home_count, sample_count)
        engine = PrivateTradingEngine(
            params=PAPER_PARAMETERS,
            config=ProtocolConfig(key_size=key_size, key_pool_size=2, seed=7),
            cost_model=CostModel.for_key_size(key_size),
        )
        traces = engine.run_windows(
            dataset, windows, home_count=home_count, workers=workers
        )
        if traces:
            average_bytes = sum(t.protocol_bandwidth_bytes for t in traces) / len(traces)
        else:
            average_bytes = 0.0
        for span in window_spans:
            observations.append(
                BandwidthObservation(
                    key_size=key_size,
                    window_span=span,
                    average_window_megabytes=average_bytes / (1024 * 1024),
                    per_home_kilobytes=average_bytes / max(home_count, 1) / 1024,
                    sampled_windows=len(traces),
                )
            )
    return observations


# ---------------------------------------------------------------------------
# Chaos survival matrix (the ``chaos`` section of BENCH_crypto.json).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosCellObservation:
    """One cell of the chaos survival matrix.

    The same seeded :class:`~repro.chaos.plan.FaultPlan` is run under one
    (transport, session scope, worker count) combination — the cell's key
    in ``ChaosMatrixObservation.matrix``; recovery must reproduce the
    fault-free baseline of the same scope bit for bit.  Day scope is the
    adversarial case: a retried anchor window must re-establish its
    sessions exactly as the first attempt did.

    Attributes:
        incidents: classified incidents the run recorded.
        worker_losses: killed-and-respawned socket shard workers among
            them (only the socket fan-out has workers to kill).
        retried_attempts: discarded window attempts — the retry currency
            behind ``retry_overhead``.
        recovered: every incident was recovered (no unrecovered entries on
            a run that completed).
        recovered_identical: the recovered run is bit-identical
            (``RunReport.identical_to`` minus the ledger) to the clean
            baseline of the same scope.
    """

    incidents: int
    worker_losses: int
    retried_attempts: int
    recovered: bool = _bench(certificate=True)
    recovered_identical: bool = _bench(certificate=True)


@dataclass(frozen=True)
class ChaosMatrixObservation:
    """The chaos engine's certified detect-and-recover report.

    Attributes:
        home_count: number of agents.
        windows_executed: market windows per run.
        chaos_seed: the fault plan's seed.
        max_attempts: the supervisor's per-window retry budget.
        matrix: the survival matrix, one cell per
            ``transport/scope/workers=N``.
        total_incidents: incidents across all cells (must be > 0, or the
            matrix never actually exercised a fault).
        recovery_rate: recovered incidents / total incidents.  Completed
            runs must recover everything, so the floor is 1.0.
        retry_overhead: worst-case ``retried_attempts / windows_executed``
            across cells — bounded by ``max_attempts - 1`` by
            construction.
        tamper_fail_closed: a run with tampered GC material aborted with
            :class:`~repro.runtime.supervisor.WindowAbortError` instead of
            producing a result.
        tamper_incident_classified: the abort carried an
            ``integrity_violation`` incident attributing the tamper.
    """

    home_count: int
    windows_executed: int
    chaos_seed: int
    max_attempts: int
    matrix: Dict[str, ChaosCellObservation]
    total_incidents: int = _bench(floor=1)
    recovery_rate: float = _bench(digits=4, floor=1.0)
    retry_overhead: float = _bench(digits=4, budget="max_attempts")
    tamper_fail_closed: bool = _bench(certificate=True)
    tamper_incident_classified: bool = _bench(certificate=True)


def experiment_chaos_matrix(
    home_count: int = 10,
    sample_count: int = 2,
    worker_counts: Sequence[int] = (1, 2, 4),
    transports: Sequence[str] = ("local", "socket"),
    session_scopes: Sequence[str] = ("window", "day"),
    chaos_seed: int = 20,
    crypto_key_size: int = 128,
    key_size: int = 1024,
    window_count: int = FULL_DAY_WINDOWS,
    seed: int = DEFAULT_SEED,
) -> ChaosMatrixObservation:
    """Run the seeded fault plan across the survival matrix and certify it.

    One :class:`~repro.chaos.plan.FaultPlan` (frame-fault rates chosen so a
    sampled day reliably sees injections, plus a mid-window pool drain; the
    socket multi-worker cells additionally SIGKILL shard 1's worker) is
    executed under every (transport, session scope, workers) combination.
    Each cell must retry back to the *bit-identical* fault-free day of its
    scope, with every incident classified and recovered.  A final run with
    tampered garbled-circuit material certifies the fail-closed path: the
    supervisor must abort with an attributable ``integrity_violation``,
    never return a result.  See ``docs/CHAOS.md``.
    """
    from ..chaos import FaultPlan, GcTamper, PoolDrain
    from ..runtime.supervisor import WindowAbortError
    from dataclasses import replace as dc_replace

    def build_engine(scope: str, transport: str, fault_plan=None) -> PrivateTradingEngine:
        return PrivateTradingEngine(
            params=PAPER_PARAMETERS,
            config=ProtocolConfig(
                key_size=crypto_key_size,
                key_pool_size=4,
                seed=7,
                session_scope=scope,
                transport=transport,
                fault_plan=fault_plan,
            ),
            cost_model=CostModel.for_key_size(key_size),
        )

    dataset = default_dataset(max(home_count, 300), window_count, seed)
    windows = sample_market_windows(dataset, home_count, sample_count)

    base_plan = FaultPlan(
        seed=chaos_seed,
        drop_rate=0.01,
        reorder_rate=0.005,
        duplicate_rate=0.005,
        corrupt_rate=0.01,
        max_faults_per_window=2,
        max_attempts=4,
        pool_drains=(PoolDrain(window=windows[0]),) if windows else (),
    )

    baselines = {
        scope: build_engine(scope, "local").run_windows_report(
            dataset, windows, home_count=home_count, workers=1
        )
        for scope in session_scopes
    }

    matrix: Dict[str, ChaosCellObservation] = {}
    total_incidents = 0
    recovered_incidents = 0
    worst_overhead = 0.0
    for transport in transports:
        for scope in session_scopes:
            for workers in worker_counts:
                plan = base_plan
                if transport == "socket" and workers > 1:
                    plan = dc_replace(base_plan, kill_shards=(1,))
                report = build_engine(scope, transport, plan).run_windows_report(
                    dataset, windows, home_count=home_count, workers=workers
                )
                retried = len(
                    {
                        (i.window, i.attempt)
                        for i in report.incidents
                        if i.action == "retry" and i.window is not None
                    }
                )
                overhead = retried / max(len(report.traces), 1)
                worst_overhead = max(worst_overhead, overhead)
                total_incidents += len(report.incidents)
                recovered_incidents += sum(1 for i in report.incidents if i.recovered)
                matrix[f"{transport}/{scope}/workers={workers}"] = ChaosCellObservation(
                    incidents=len(report.incidents),
                    worker_losses=sum(
                        1
                        for i in report.incidents
                        if i.classification == "worker_loss"
                    ),
                    retried_attempts=retried,
                    recovered=all(i.recovered for i in report.incidents),
                    recovered_identical=report.identical_to(
                        baselines[scope], include_incidents=False
                    ),
                )

    tamper_plan = FaultPlan(
        seed=chaos_seed,
        tampers=(GcTamper(window=windows[0]),) if windows else (),
    )
    tamper_fail_closed = False
    tamper_classified = False
    try:
        build_engine("window", "local", tamper_plan).run_windows_report(
            dataset, windows, home_count=home_count, workers=1
        )
    except WindowAbortError as exc:
        tamper_fail_closed = True
        tamper_classified = any(
            i.fault == "gc_tamper" and i.classification == "integrity_violation"
            for i in exc.incidents
        )

    return ChaosMatrixObservation(
        home_count=home_count,
        windows_executed=len(windows),
        chaos_seed=chaos_seed,
        max_attempts=base_plan.max_attempts,
        matrix=matrix,
        total_incidents=total_incidents,
        recovery_rate=(
            recovered_incidents / total_incidents if total_incidents else 0.0
        ),
        retry_overhead=worst_overhead,
        tamper_fail_closed=tamper_fail_closed,
        tamper_incident_classified=tamper_classified,
    )


# ---------------------------------------------------------------------------
# Window pipelining (the ``pipelining`` section of BENCH_crypto.json).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipeliningObservation:
    """Pipelined vs. serialized offline/online phase scheduling, certified.

    The same day-scoped sampled day is executed with and without a
    :class:`~repro.runtime.pipeline.WindowPipeline` stage, which pre-stages
    window W+1's offline material (randomizer obfuscators, garbled
    comparisons and their OT batches) during window W's online phase.  On
    the simulated clock each pipeline slot is charged
    ``max(online_W, offline_W+1)`` instead of the phases' sum
    (:func:`repro.net.costmodel.pipelined_day_cost`).

    The cost model is :meth:`CostModel.for_wan_profile` — the paper's
    deployment puts the trading containers *in the homes*, so inter-home
    messages cross residential broadband (5 ms, 20 MB/s), not a datacenter
    LAN.  Under the LAN profile the online clock is so small that almost
    no offline work fits under it; the WAN profile balances the two
    phases, which is exactly the regime pipelining targets.

    Certificates (all must hold):

    * **bit-identity** — pipelined runs are ``RunReport.identical_to`` the
      unpipelined day at every worker count, over local *and* socket
      transports, and under the tree aggregation topology (against the
      tree unpipelined day): pipelining moves wall-clock work, never
      results, accounting, or the per-window overlap counters.
    * **chaos** — a seeded fault plan run *pipelined* must retry back to
      the bit-identical clean unpipelined day: a supervisor retry of
      window W cannot consume or double-charge window W+1's pre-staged
      material (reservations are claimed only when W+1 itself advances).

    Attributes:
        home_count: number of agents.
        windows_executed: market windows in the sampled day.
        unpipelined_day_seconds: simulated day runtime with every window's
            offline phase serialized before its online phase.
        pipelined_day_seconds: the same day with W+1's offline phase
            hidden under W's online phase.
        pipeline_speedup: ratio of the two; the floor applies from 6
            windows up (the anchor's un-hideable offline phase dominates
            shorter days).
        hidden_offline_seconds: offline seconds the pipeline hid.
        overlap_eligible_seconds: merged ``pipeline_overlap_seconds`` —
            the day's pipeline-eligible offline work (every non-anchor
            window's offline clock; identical pipelined or not, so it
            folds into ``identical_to``).
        pipeline_reserved: offline values actually pre-staged by the
            workers=1 pipelined run (wall-clock telemetry).
        identical_by_workers: worker count -> pipelined run bit-identical
            to the unpipelined baseline (local transport).
        socket_identical_by_workers: the same certificate with shards
            fanned out over loopback TCP.
        tree_topology_identical: pipelined tree-aggregation day
            bit-identical to the unpipelined tree day.
        chaos_incidents: incidents recorded by the seeded chaos run.
        chaos_recovered: every chaos incident recovered.
        chaos_recovered_identical: the recovered pipelined chaos run is
            bit-identical (minus the ledger) to the clean unpipelined day.
    """

    home_count: int
    windows_executed: int
    unpipelined_day_seconds: float = _bench(digits=6)
    pipelined_day_seconds: float = _bench(digits=6)
    pipeline_speedup: float = _bench(digits=4, floor=1.3, when=("windows_executed", 6))
    hidden_offline_seconds: float = _bench(digits=6)
    overlap_eligible_seconds: float = _bench(digits=6)
    pipeline_reserved: int
    identical_by_workers: Dict[int, bool] = _bench(certificate=True)
    socket_identical_by_workers: Dict[int, bool] = _bench(certificate=True)
    tree_topology_identical: bool = _bench(certificate=True)
    chaos_incidents: int
    chaos_recovered: bool = _bench(certificate=True)
    chaos_recovered_identical: bool = _bench(certificate=True)


def experiment_window_pipelining(
    home_count: int = 12,
    sample_count: int = 6,
    worker_counts: Sequence[int] = (1, 2, 4),
    crypto_key_size: int = 128,
    key_size: int = 1024,
    window_count: int = FULL_DAY_WINDOWS,
    seed: int = DEFAULT_SEED,
    chaos_seed: int = 20,
) -> PipeliningObservation:
    """Measure the offline/online pipelining win and its certificates.

    See :class:`PipeliningObservation` for the setup and the three
    certificates.  The speedup is a pure function of the per-window traces
    (offline and online clocks), so it is read off the *baseline* report —
    any of the bit-identical runs would give the same number.
    """
    from ..chaos import FaultPlan, PoolDrain

    def build_engine(
        transport: str = "local", topology: str = "chain", fault_plan=None
    ) -> PrivateTradingEngine:
        return PrivateTradingEngine(
            params=PAPER_PARAMETERS,
            config=ProtocolConfig(
                key_size=crypto_key_size,
                key_pool_size=4,
                seed=7,
                session_scope="day",
                transport=transport,
                aggregation_topology=topology,
                fault_plan=fault_plan,
            ),
            cost_model=CostModel.for_wan_profile(key_size),
        )

    dataset = default_dataset(max(home_count, 300), window_count, seed)
    windows = sample_market_windows(dataset, home_count, sample_count)

    baseline = build_engine().run_windows_report(
        dataset, windows, home_count=home_count, workers=1
    )

    pipeline_reserved = 0
    identical_by_workers: Dict[int, bool] = {}
    socket_identical_by_workers: Dict[int, bool] = {}
    for workers in worker_counts:
        report = build_engine().run_windows_report(
            dataset, windows, home_count=home_count, workers=workers, pipeline=True
        )
        identical_by_workers[workers] = baseline.identical_to(report)
        if workers == 1:
            pipeline_reserved = report.pipeline_reserved
        socket_report = build_engine(transport="socket").run_windows_report(
            dataset, windows, home_count=home_count, workers=workers, pipeline=True
        )
        socket_identical_by_workers[workers] = baseline.identical_to(socket_report)

    tree_baseline = build_engine(topology="tree").run_windows_report(
        dataset, windows, home_count=home_count, workers=1
    )
    tree_pipelined = build_engine(topology="tree").run_windows_report(
        dataset, windows, home_count=home_count, workers=2, pipeline=True
    )
    tree_identical = tree_baseline.identical_to(tree_pipelined)

    chaos_plan = FaultPlan(
        seed=chaos_seed,
        drop_rate=0.01,
        reorder_rate=0.005,
        duplicate_rate=0.005,
        corrupt_rate=0.01,
        max_faults_per_window=2,
        max_attempts=4,
        pool_drains=(PoolDrain(window=windows[0]),) if windows else (),
    )
    chaos = build_engine(fault_plan=chaos_plan).run_windows_report(
        dataset, windows, home_count=home_count, workers=2, pipeline=True
    )

    return PipeliningObservation(
        home_count=home_count,
        windows_executed=len(baseline.traces),
        unpipelined_day_seconds=baseline.unpipelined_simulated_seconds,
        pipelined_day_seconds=baseline.pipelined_simulated_seconds,
        pipeline_speedup=baseline.pipeline_speedup,
        hidden_offline_seconds=baseline.pipeline_hidden_seconds,
        overlap_eligible_seconds=baseline.stats.pipeline_overlap_seconds,
        pipeline_reserved=pipeline_reserved,
        identical_by_workers=identical_by_workers,
        socket_identical_by_workers=socket_identical_by_workers,
        tree_topology_identical=tree_identical,
        chaos_incidents=len(chaos.incidents),
        chaos_recovered=all(i.recovered for i in chaos.incidents),
        chaos_recovered_identical=chaos.identical_to(
            baseline, include_incidents=False
        ),
    )


@dataclass(frozen=True)
class PlannerRegimeObservation:
    """The deployment planner's verdict on one fleet regime.

    Attributes:
        hosts / cores_per_host / agents / windows / link: the
            :class:`~repro.planning.FleetSpec` facts of the regime.
        naive_day_seconds: predicted day cost of the seed deployment
            (serial chain, per-window sessions, classic garbling, one
            worker).
        planned_day_seconds: predicted day cost of the planner's choice.
        speedup: ratio of the two — the planning win, which must
            strictly beat the naive default in every regime.
        oracle_match: True iff branch-and-bound returned the exhaustive
            enumeration's argmin with bit-equal cost (the planner's
            optimality certificate).
        candidates_evaluated / candidates_pruned / space_size: search
            audit (evaluated + pruned must cover the feasible space).
        planned: the chosen candidate's knob settings.
    """

    hosts: int
    cores_per_host: int
    agents: int
    windows: int
    link: str
    naive_day_seconds: float = _bench(digits=6)
    planned_day_seconds: float = _bench(digits=6)
    speedup: float = _bench(digits=4, floor=1.0, strict=True)
    oracle_match: bool = _bench(certificate=True)
    candidates_evaluated: int
    candidates_pruned: int
    space_size: int
    planned: Dict[str, object]


@dataclass(frozen=True)
class PlannerExecutedObservation:
    """End-to-end execution certificate of one planned deployment.

    The planner's emitted ``ProtocolConfig`` + ``ExecutionPlan`` run a
    real sampled trading day next to the naive default deployment;
    ``economics_identical`` certifies the plan moved clock charges, never
    trades, and the measured day clocks replay the predicted win on the
    runtime's own accounting.
    """

    regime: str
    windows_executed: int
    economics_identical: bool = _bench(certificate=True)
    planned_day_seconds: float = _bench(digits=6)
    naive_day_seconds: float = _bench(digits=6)
    measured_speedup: float = _bench(digits=4, floor=1.0, strict=True)


@dataclass(frozen=True)
class PlannerSweepObservation:
    """``experiment_planner_sweep``'s result: verdicts keyed by regime
    label (``lan_single_host`` / ``lan_cluster`` / ``wan_homes``) plus the
    executed certificate (the ``planner`` section of BENCH_crypto.json)."""

    regimes: Dict[str, PlannerRegimeObservation] = _bench(min_len=3)
    executed: PlannerExecutedObservation


def experiment_planner_sweep(
    home_count: int = 10,
    sample_count: int = 4,
    crypto_key_size: int = 128,
    key_size: int = 1024,
    window_count: int = FULL_DAY_WINDOWS,
    seed: int = DEFAULT_SEED,
) -> PlannerSweepObservation:
    """Plan three fleet regimes, certify optimality, execute one plan.

    The three regimes cover the deployment space's interesting corners:
    a single LAN host (few cores, transport may stay local), a LAN
    cluster (sockets forced, workers plentiful) and a WAN fleet of homes
    (:meth:`CostModel.for_wan_profile` links, latency-dominated).  Every
    regime's plan is checked against the exhaustive oracle; the first
    regime's plan is then executed end-to-end over a real sampled day
    against the naive default and must be economically identical.
    """
    from ..planning import (
        FleetSpec,
        WAN_PROFILE,
        build_cost_model,
        exhaustive_argmin,
        naive_candidate,
        plan,
    )

    regimes = (
        ("lan_single_host", FleetSpec(
            hosts=1, cores_per_host=4, agent_count=12, windows_per_day=6,
            key_size=key_size,
        )),
        ("lan_cluster", FleetSpec(
            hosts=4, cores_per_host=4, agent_count=64, windows_per_day=12,
            key_size=key_size,
        )),
        ("wan_homes", FleetSpec(
            hosts=16, cores_per_host=1, link=WAN_PROFILE, agent_count=32,
            windows_per_day=8, key_size=key_size,
        )),
    )

    observations: Dict[str, PlannerRegimeObservation] = {}
    for name, spec in regimes:
        deployment = plan(spec)
        oracle = exhaustive_argmin(spec)
        observations[name] = PlannerRegimeObservation(
            hosts=spec.hosts,
            cores_per_host=spec.cores_per_host,
            agents=spec.agent_count,
            windows=spec.windows_per_day,
            link=spec.link.name,
            naive_day_seconds=deployment.naive.day_seconds,
            planned_day_seconds=deployment.chosen.day_seconds,
            speedup=deployment.predicted_speedup,
            oracle_match=(
                oracle.candidate == deployment.chosen.candidate
                and oracle.day_seconds == deployment.chosen.day_seconds
            ),
            candidates_evaluated=deployment.candidates_evaluated,
            candidates_pruned=deployment.candidates_pruned,
            space_size=deployment.space_size,
            planned=deployment.chosen.candidate.to_dict(),
        )

    # Execute the first regime's plan end-to-end on a real sampled day.
    executed_name, executed_spec = regimes[0]
    deployment = plan(executed_spec)
    chosen = deployment.chosen.candidate
    naive = naive_candidate(executed_spec)
    dataset = default_dataset(max(home_count, 300), window_count, seed)
    windows = sample_market_windows(dataset, home_count, sample_count)

    def run(candidate):
        engine = PrivateTradingEngine(
            params=PAPER_PARAMETERS,
            config=candidate.protocol_config(crypto_key_size=crypto_key_size),
            cost_model=build_cost_model(executed_spec, candidate.key_size),
        )
        return engine.run_windows_report(
            dataset,
            windows,
            home_count=home_count,
            workers=candidate.workers,
            pipeline=candidate.pipeline,
        )

    planned_report = run(chosen)
    naive_report = run(naive)
    economics_identical = len(planned_report.traces) == len(naive_report.traces) and all(
        a.result.economically_equal(b.result)
        for a, b in zip(planned_report.traces, naive_report.traces)
    )
    planned_seconds = (
        planned_report.pipelined_simulated_seconds
        if chosen.pipeline
        else planned_report.unpipelined_simulated_seconds
    )
    naive_seconds = naive_report.unpipelined_simulated_seconds
    executed = PlannerExecutedObservation(
        regime=executed_name,
        windows_executed=len(planned_report.traces),
        economics_identical=economics_identical,
        planned_day_seconds=planned_seconds,
        naive_day_seconds=naive_seconds,
        measured_speedup=(
            naive_seconds / planned_seconds if planned_seconds > 0 else 1.0
        ),
    )
    return PlannerSweepObservation(regimes=observations, executed=executed)
