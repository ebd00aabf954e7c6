"""Protocol 1 — the Private Energy Market orchestrator.

Runs one trading window end-to-end over the simulated network using the
cryptographic sub-protocols:

1. **Initialization** — agents announce roles and public keys, the seller
   and buyer coalitions are formed (role claims are public, the underlying
   quantities are not),
2. **Private Market Evaluation** (Protocol 2) decides general vs. extreme,
3. **Private Pricing** (Protocol 3) computes ``p*`` in the general market
   (the extreme market pins the price at ``pl``),
4. **Private Distribution** (Protocol 4) allocates pairwise amounts and
   settles payments.

The resulting :class:`~repro.core.results.WindowResult` has exactly the
same structure as the plaintext engine's, plus the protocol's bandwidth and
simulated-runtime measurements — which is what the Figure 5 / Table I
benchmarks consume.

Runtime accounting
------------------

Each trace reports two separate simulated clocks (see
:mod:`repro.net.costmodel`):

* ``simulated_runtime_seconds`` — the *online critical path*: aggregation
  layers (serial chain hops or concurrent tree layers, per
  ``ProtocolConfig.aggregation_topology``), communication rounds,
  homomorphic aggregation, the garbled comparison, and one modular
  multiplication per pooled encryption;
* ``offline_seconds`` — idle-time randomizer-pool precomputation, which the
  paper pipelines off the critical path ("encryption and decryption are
  independently executed in parallel during idle time").

Pooled obfuscators are strictly one-shot (reuse would link ciphertexts, see
:mod:`repro.crypto.accel`); the engine recycles unused pool entries at every
window boundary so each window's offline accounting is a deterministic
function of that window alone — the property that lets
:mod:`repro.runtime` shard windows across worker processes and still merge
bit-identical results.  Encryptions that catch a drained pool fall back to
online exponentiation and are surfaced per window as
``pool_fallback_count``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from ...data.loader import WindowSlice, iter_windows
from ...data.traces import TraceDataset
from ...net.costmodel import CostModel
from ...net.network import SimulatedNetwork
from ...net.session import SessionManager
from ...net.transport import TRANSPORTS, make_transport
from ..agent import AgentWindowState, BatteryPolicy
from ..baseline import grid_only_window
from ..coalition import form_coalitions
from ..market import MarketCase
from ..params import MarketParameters, PAPER_PARAMETERS
from ..pem import (
    assemble_market_result,
    assemble_no_market_result,
    build_agents,
    states_for_window,
)
from ..results import TradingDayResult, WindowResult
from .context import KeyRing, ProtocolConfig, ProtocolContext
from .distribution import run_private_distribution
from .market_evaluation import run_market_evaluation
from .pricing import run_private_pricing

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from ...net.stats import TrafficStats
    from ...runtime.pipeline import WindowPipeline
    from ...runtime.runner import RunReport

__all__ = ["PrivateWindowTrace", "PrivateTradingEngine"]

#: Message kinds that settle trades (physical routing and payment
#: notifications) rather than perform the secure computation itself; they
#: are excluded from the Table I protocol-bandwidth measurement.
_SETTLEMENT_KINDS = ("energy_route", "payment")

#: Day-scope session keys (see :mod:`repro.net.session`): the market
#: coordination channel every agent shares with the orchestration fabric,
#: and the evaluation leaders' OT-extension channel backing the garbled
#: comparison (``ComparisonPool.sessions_started`` accounting).
_COORDINATION_SESSION = ("pem", "coordination")
_COMPARISON_SESSION = ("gc", "ot-extension")


@dataclass
class PrivateWindowTrace:
    """Protocol-level details of one privately executed window.

    Attributes:
        result: the economic window result (same structure as plaintext).
        market_evaluation_leader_ids: the two agents that ran the secure
            comparison (seller ``H_r1``, buyer ``H_r2``) — empty when no
            market exists.
        pricing_leader_id: the buyer ``H_b`` of Protocol 3 (general market).
        ratio_holder_id: the agent that learned the share ratios in
            Protocol 4.
        bandwidth_bytes: total window traffic, including the energy-routing
            and payment notifications that settle the trades.
        protocol_bandwidth_bytes: traffic of the secure computation itself
            (ciphertext chains, garbled-circuit comparison, ratio exchange) —
            the quantity the paper's Table I reports.
        simulated_runtime_seconds: critical-path (*online*) runtime charged
            by the cost model.
        offline_seconds: idle-time randomizer-pool precomputation charged
            by the cost model; by construction never on the critical path
            (the paper pipelines encryption/decryption during idle time).
        gc_offline_seconds: idle-time garbled-comparison preparation
            (circuit garbling, the window's base-OT session, OT-extension
            batches) — the comparison-side analogue of
            ``offline_seconds``.
        pool_fallback_count: encryptions whose randomizer pool was drained
            and that therefore paid a full online exponentiation — nonzero
            values flag under-provisioned pool warm-ups.
        gc_fallback_count: secure comparisons whose prepared-instance pool
            was drained and that therefore garbled on the online clock.
        pipeline_overlap_seconds: the window's offline seconds eligible to
            overlap the preceding pipeline slot's online phase (day scope,
            non-anchor windows; see
            :attr:`repro.net.stats.TrafficStats.pipeline_overlap_seconds`).
            Recorded identically whether or not the run pipelined.
    """

    result: WindowResult
    market_evaluation_leader_ids: tuple[str, ...] = ()
    pricing_leader_id: Optional[str] = None
    ratio_holder_id: Optional[str] = None
    bandwidth_bytes: int = 0
    protocol_bandwidth_bytes: int = 0
    simulated_runtime_seconds: float = 0.0
    offline_seconds: float = 0.0
    gc_offline_seconds: float = 0.0
    pool_fallback_count: int = 0
    gc_fallback_count: int = 0
    pipeline_overlap_seconds: float = 0.0


class PrivateTradingEngine:
    """Runs PEM trading windows with the full cryptographic protocol stack.

    Args:
        params: market parameters.
        config: protocol configuration (key size, precision, seeds).
        cost_model: cost model used to accumulate simulated runtime; by
            default one matching ``config.key_size`` with pipelined crypto
            (the paper's deployment).
    """

    def __init__(
        self,
        params: MarketParameters = PAPER_PARAMETERS,
        config: ProtocolConfig = ProtocolConfig(),
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.params = params
        self.config = config
        self.cost_model = cost_model or CostModel.for_key_size(config.key_size)
        self.keyring = KeyRing(config)
        #: long-lived protocol sessions (scope from ``config.session_scope``;
        #: replaced per shard by :meth:`execute_shard` so the anchor window
        #: is consistent across workers — see :mod:`repro.net.session`).
        self.sessions = SessionManager(config.session_scope)
        #: incident ledger of the last :meth:`execute_shard` call — empty
        #: unless ``config.fault_plan`` put the shard under the
        #: :class:`~repro.runtime.supervisor.WindowSupervisor`.  Collected
        #: by the runner into ``RunReport.incidents``.
        self.last_shard_incidents: list = []
        if config.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {config.transport!r}; expected one of {TRANSPORTS}"
            )

    def build_network(self) -> SimulatedNetwork:
        """A fresh network over this engine's cost model and transport."""
        return SimulatedNetwork(
            cost_model=self.cost_model, transport=make_transport(self.config.transport)
        )

    # -- single window -----------------------------------------------------------

    def run_window(
        self,
        window: int,
        states: Sequence[AgentWindowState],
        network: Optional[SimulatedNetwork] = None,
    ) -> PrivateWindowTrace:
        """Run one trading window through Protocols 1-4.

        Args:
            window: the window index.
            states: every agent's private window state.
            network: optional pre-built network (a fresh one is created per
                window otherwise, mirroring per-window protocol sessions).

        Returns:
            a :class:`PrivateWindowTrace` containing the window result plus
            protocol measurements.
        """
        owns_network = network is None
        network = network or self.build_network()
        try:
            return self._run_window_over(window, states, network)
        finally:
            if owns_network:
                network.close()

    def _run_window_over(
        self,
        window: int,
        states: Sequence[AgentWindowState],
        network: SimulatedNetwork,
    ) -> PrivateWindowTrace:
        baseline_stats = network.stats
        start_bytes = baseline_stats.total_bytes
        start_settlement_bytes = baseline_stats.bytes_for_kinds(_SETTLEMENT_KINDS)
        start_seconds = baseline_stats.simulated_seconds
        start_offline = baseline_stats.offline_seconds
        start_gc_offline = baseline_stats.gc_offline_seconds
        start_fallbacks = baseline_stats.pool_fallbacks
        start_gc_fallbacks = baseline_stats.gc_fallbacks

        day_scope = self.sessions.scope == "day"
        self.sessions.begin_window(window)

        # Window boundary: park unused pool entries in the reservoirs so the
        # offline accounting of this window never depends on which windows
        # ran earlier in this process (the values themselves are kept and
        # remain one-shot).  This is what keeps sharded parallel runs
        # bit-identical to serial ones.  Day-scoped runs keep the base-OT
        # sessions open across the boundary — that is the cost they
        # amortize; the per-instance accounting still restarts cold.
        self.keyring.recycle_pools(keep_sessions=day_scope)

        # Day scope: the fixed session costs are paid once, at the day's
        # anchor window (market or not — the day session comes up when the
        # day starts); every other window leases the established sessions.
        if day_scope:
            self._lease_day_sessions(network)

        coalitions = form_coalitions(window, states)
        baseline = grid_only_window(coalitions, self.params)

        if not coalitions.has_market:
            result = assemble_no_market_result(coalitions, baseline, self.params)
            trace = PrivateWindowTrace(result=result)
            self._attach_measurements(
                trace, network, start_bytes, start_settlement_bytes, start_seconds,
                start_offline, start_gc_offline, start_fallbacks, start_gc_fallbacks,
            )
            return trace

        # Initialization (Protocol 1 lines 1-4).  Key pairs are generated and
        # public keys shared once at system setup (Protocol 1 lines 1-2), so
        # the per-window traffic measured here — like the paper's — consists
        # of the protocol ciphertexts, ratios, routing and payments only.
        # Constructing the context also warms the agents' randomizer pools
        # (offline precomputation, charged to the separate offline clock).
        context = ProtocolContext(
            coalitions=coalitions,
            network=network,
            config=self.config,
            params=self.params,
            keyring=self.keyring,
            # staticcheck: ignore[csprng-default] -- per-window protocol
            # randomness is deliberately derived from config.seed so serial
            # and sharded runs replay bit-identically; key/pool material
            # comes from the KeyRing's CSPRNG, never this stream.
            rng=random.Random((self.config.seed * 1_000_003 + window) & 0xFFFFFFFF),
        )

        # Window-scoped sessions re-pay the protocol session overhead
        # (container coordination) every market window; day scope already
        # charged it at the anchor window.
        if not day_scope:
            context.charge_window_setup()
            network.record_session_established()

        # Protocol 2: Private Market Evaluation.
        evaluation = run_market_evaluation(context)

        # Protocol 3 (general market) or the pl price rule (extreme market).
        if evaluation.is_general_market:
            case = MarketCase.GENERAL
            pricing = run_private_pricing(context)
            price = pricing.clearing_price
            pricing_leader = pricing.leader_buyer_id
        else:
            case = MarketCase.EXTREME
            price = self.params.price_lower_bound
            pricing_leader = None

        # Protocol 4: Private Distribution.
        distribution = run_private_distribution(context, case, price)

        result = assemble_market_result(
            coalitions, case, price, distribution.clearing, baseline, self.params
        )
        trace = PrivateWindowTrace(
            result=result,
            market_evaluation_leader_ids=(
                evaluation.leader_seller_id,
                evaluation.leader_buyer_id,
            ),
            pricing_leader_id=pricing_leader,
            ratio_holder_id=distribution.ratio_holder_id,
        )
        # A frame error the transport deferred must surface inside the window.
        network.flush()
        self._attach_measurements(
            trace, network, start_bytes, start_settlement_bytes, start_seconds,
            start_offline, start_gc_offline, start_fallbacks, start_gc_fallbacks,
        )
        return trace

    def _lease_day_sessions(self, network: SimulatedNetwork) -> None:
        """Lease (or establish) the day-scoped protocol sessions.

        At the day's anchor window the establishment is *accounted*: the
        fixed coordination setup is charged to the online clock, the
        OT-extension base-OT session is opened on the comparison pool
        (``ComparisonPool.begin_session``) and charged to the gc-offline
        clock, and ``sessions_established`` is bumped once per session.
        Every other window — including the first window of a worker shard
        that does not contain the anchor — records reuses instead, so
        per-window accounting is a pure function of the window and sharded
        runs stay bit-identical to serial ones.
        """
        model = network.cost_model
        coordination = self.sessions.lease(*_COORDINATION_SESSION)
        if coordination.counts_as_established:
            network.record_session_established()
            if model is not None:
                network.charge_crypto_time(model.window_setup_cost())
        else:
            network.record_session_reused()
        if not self.config.use_comparison_pool:
            return
        comparison = self.sessions.lease(*_COMPARISON_SESSION)
        pool = self.keyring.comparison_pool(self.config.comparison_bits)
        if comparison.counts_as_established:
            pool.begin_session()
            network.record_session_established()
            # The session's base-OT wire traffic is accounted here, at
            # establishment, attributed to the day-long OT-extension
            # channel itself (window scope attributes it to the window's
            # evaluation leader — a per-window identity no worker shard
            # could reconstruct for a day-long session).
            network.charge_extra_traffic(
                "/".join(_COMPARISON_SESSION), sent=pool.session_wire_bytes()
            )
            if model is not None:
                network.charge_gc_offline_time(
                    model.comparison_session_cost(self.config.ot_extension_kappa)
                )
        else:
            pool.ensure_session()
            network.record_session_reused()

    def _attach_measurements(
        self,
        trace: PrivateWindowTrace,
        network: SimulatedNetwork,
        start_bytes: int,
        start_settlement_bytes: int,
        start_seconds: float,
        start_offline: float,
        start_gc_offline: float = 0.0,
        start_fallbacks: int = 0,
        start_gc_fallbacks: int = 0,
    ) -> None:
        trace.bandwidth_bytes = network.stats.total_bytes - start_bytes
        settlement_bytes = (
            network.stats.bytes_for_kinds(_SETTLEMENT_KINDS) - start_settlement_bytes
        )
        trace.protocol_bandwidth_bytes = trace.bandwidth_bytes - settlement_bytes
        trace.simulated_runtime_seconds = network.stats.simulated_seconds - start_seconds
        trace.offline_seconds = network.stats.offline_seconds - start_offline
        trace.gc_offline_seconds = network.stats.gc_offline_seconds - start_gc_offline
        trace.pool_fallback_count = network.stats.pool_fallbacks - start_fallbacks
        trace.gc_fallback_count = network.stats.gc_fallbacks - start_gc_fallbacks
        # Day scope: every non-anchor window's offline work could have been
        # pre-staged during the previous pipeline slot — record how much.
        # A pure function of the window given the day's anchor, recorded
        # whether or not the run actually pipelined, so the counter folds
        # into the bit-identity certificate across pipeline modes too.
        if self.sessions.scope == "day" and not self.sessions.at_anchor:
            trace.pipeline_overlap_seconds = (
                trace.offline_seconds + trace.gc_offline_seconds
            )
            network.record_pipeline_overlap(trace.pipeline_overlap_seconds)
        trace.result.bandwidth_bytes = trace.bandwidth_bytes
        trace.result.simulated_runtime_seconds = trace.simulated_runtime_seconds

    # -- multi-window runs ----------------------------------------------------------

    def execute_shard(
        self,
        dataset: TraceDataset,
        windows: Iterable[int],
        home_count: Optional[int] = None,
        battery_policy: Optional[BatteryPolicy] = None,
        reuse_network: bool = False,
        collect_stats: bool = False,
        session_anchor: Optional[int] = None,
        pipeline: Optional["WindowPipeline"] = None,
    ) -> tuple[List[PrivateWindowTrace], List["TrafficStats"]]:
        """Serially execute one shard of windows (the worker-side primitive).

        Battery state is advanced over *all* windows up to the last selected
        one so the selected windows see the same agent states they would in
        a full-day run — this is what makes any sharding of a day's windows
        equivalent to executing them back-to-back.

        Args:
            dataset: the trace dataset.
            windows: indices of the windows to execute privately.
            home_count: restrict to the first N homes.
            battery_policy: optional battery policy override.
            reuse_network: execute every window over one long-lived network
                (accumulating a single traffic log) instead of a fresh
                network per window.
            collect_stats: also return the :class:`TrafficStats` of each
                window (one accumulated object for the whole shard when
                ``reuse_network`` is set).
            session_anchor: the day's session-establishing window for
                ``session_scope="day"`` — the *global* first window of the
                run, which for a worker shard may not be (or even be in)
                this shard.  Defaults to the first selected window, which
                is correct for serial (single-shard) execution.
            pipeline: optional :class:`~repro.runtime.pipeline.WindowPipeline`
                stage — ``advance(window)`` is called once per selected
                window, *before* its (possibly supervised and retried)
                execution, so each window claims its pre-staged offline
                material and then stages the next window's.  Wall-clock
                only; accounting and results are bit-identical either way.

        Returns:
            ``(traces, stats)`` — one trace per selected window in ascending
            order, and the collected stats (empty unless ``collect_stats``).
        """
        from ...runtime.supervisor import WindowSupervisor

        selected = sorted(set(windows))
        self.last_shard_incidents = []
        if not selected:
            return [], []
        supervisor = WindowSupervisor.for_config(self.config)
        if supervisor is not None and reuse_network:
            raise ValueError(
                "chaos supervision requires fresh-network-per-window "
                "(a retried attempt must discard its accounting wholesale)"
            )
        # A fresh session manager per shard: every worker agrees on the
        # anchor window, and repeated runs on one engine stay deterministic.
        anchor = session_anchor if session_anchor is not None else selected[0]
        self.sessions = SessionManager(self.config.session_scope, anchor_window=anchor)
        agents = build_agents(dataset, battery_policy=battery_policy, home_count=home_count)
        count = len(agents)
        shared_network = self.build_network() if reuse_network else None

        traces: List[PrivateWindowTrace] = []
        stats: List["TrafficStats"] = []
        last = selected[-1]
        wanted = set(selected)
        try:
            for window_slice in iter_windows(dataset, stop=last + 1):
                trimmed = WindowSlice(
                    window=window_slice.window,
                    home_ids=window_slice.home_ids[:count],
                    generation_kwh=window_slice.generation_kwh[:count],
                    load_kwh=window_slice.load_kwh[:count],
                )
                states = states_for_window(agents, trimmed)
                if window_slice.window not in wanted:
                    continue
                if pipeline is not None:
                    # Enter the window's pipeline slot: claim its pre-staged
                    # offline material and stage the next window's.
                    # Exactly once per window — supervisor retries below
                    # must not consume the next window's reservations.
                    pipeline.advance(window_slice.window)
                if supervisor is not None:
                    # Supervised path: the supervisor owns the per-attempt
                    # networks, classifies failures, retries or fails
                    # closed, and returns the certified attempt.
                    trace, window_stats, incidents = supervisor.run_window(
                        self, window_slice.window, states
                    )
                    traces.append(trace)
                    if collect_stats:
                        stats.append(window_stats)
                    self.last_shard_incidents.extend(incidents)
                    continue
                network = shared_network or self.build_network()
                try:
                    traces.append(
                        self.run_window(window_slice.window, states, network=network)
                    )
                    if collect_stats and shared_network is None:
                        stats.append(network.stats)
                finally:
                    if shared_network is None:
                        network.close()
            if collect_stats and shared_network is not None:
                stats.append(shared_network.stats)
        finally:
            if shared_network is not None:
                shared_network.close()
        return traces, stats

    def run_windows(
        self,
        dataset: TraceDataset,
        windows: Iterable[int],
        home_count: Optional[int] = None,
        battery_policy: Optional[BatteryPolicy] = None,
        reuse_network: bool = False,
        workers: int = 1,
        shard_strategy: str = "stride",
    ) -> List[PrivateWindowTrace]:
        """Run the private protocol stack over selected windows of a dataset.

        With ``workers=1`` (the default) the windows execute serially in
        this process on this engine.  With ``workers>1`` the windows are
        sharded across worker processes via :class:`repro.runtime.ParallelRunner`
        and the traces are merged back in window order; results are
        bit-identical to the serial run (see :class:`KeyRing` and the
        window-boundary pool recycling in :meth:`run_window`).

        Args:
            dataset: the trace dataset.
            windows: indices of the windows to execute privately.
            home_count: restrict to the first N homes.
            battery_policy: optional battery policy override.
            reuse_network: execute every window over one long-lived network
                (one per worker when sharded) instead of a fresh network per
                window.
            workers: number of worker processes to shard the windows over.
            shard_strategy: ``"stride"`` (interleaved, balances the midday
                market windows) or ``"contiguous"``.

        Returns:
            one :class:`PrivateWindowTrace` per selected window, in order.
        """
        if workers <= 1:
            traces, _ = self.execute_shard(
                dataset,
                windows,
                home_count=home_count,
                battery_policy=battery_policy,
                reuse_network=reuse_network,
            )
            return traces
        report = self.run_windows_report(
            dataset,
            windows,
            home_count=home_count,
            battery_policy=battery_policy,
            reuse_network=reuse_network,
            workers=workers,
            shard_strategy=shard_strategy,
        )
        return report.traces

    def run_windows_report(
        self,
        dataset: TraceDataset,
        windows: Iterable[int],
        home_count: Optional[int] = None,
        battery_policy: Optional[BatteryPolicy] = None,
        reuse_network: bool = False,
        workers: int = 1,
        shard_strategy: str = "stride",
        pipeline: bool = False,
    ) -> "RunReport":
        """Like :meth:`run_windows`, returning the full :class:`RunReport`.

        The report carries, besides the traces, the merged per-window
        :class:`TrafficStats` (folded in window order, so bit-stable across
        worker counts), per-shard wall-clock, and the simulated-clock
        day-runtime aggregates used by the Fig. 5-style parallel benchmark.

        With ``workers > 1`` the shards reach their worker processes over
        loopback TCP (see :class:`repro.runtime.ParallelRunner`).

        ``pipeline`` executes every shard with a
        :class:`~repro.runtime.pipeline.WindowPipeline` stage (requires
        ``session_scope="day"``): each window's offline material is
        pre-staged when the previous window begins, and the
        report's ``pipelined_simulated_seconds`` charges each slot
        ``max(online_W, offline_W+1)`` — results and accounting stay
        bit-identical to the unpipelined day.
        """
        from ...runtime import ExecutionPlan, ParallelRunner

        plan = ExecutionPlan.for_windows(
            windows, workers, strategy=shard_strategy, pipeline=pipeline
        )
        runner = ParallelRunner(plan)
        return runner.run(
            self,
            dataset,
            home_count=home_count,
            battery_policy=battery_policy,
            reuse_network=reuse_network,
        )

    def run_day(
        self,
        dataset: TraceDataset,
        home_count: Optional[int] = None,
        windows: Optional[Iterable[int]] = None,
        battery_policy: Optional[BatteryPolicy] = None,
        workers: int = 1,
    ) -> TradingDayResult:
        """Run selected (default: all) windows and return a TradingDayResult.

        Mirrors :meth:`repro.core.pem.PlainTradingEngine.run_day` so the two
        engines are drop-in replacements for each other in the experiment
        runner; ``workers`` shards the day across processes.
        """
        window_indices = (
            list(windows) if windows is not None else list(range(dataset.window_count))
        )
        traces = self.run_windows(
            dataset,
            window_indices,
            home_count=home_count,
            battery_policy=battery_policy,
            workers=workers,
        )
        day = TradingDayResult()
        for trace in traces:
            day.append(trace.result)
        return day
