"""Sharded execution of independent trading windows across worker processes.

The runner takes an :class:`~repro.runtime.plan.ExecutionPlan`, runs a
single-shard plan inline and fans a multi-shard plan out to worker
processes that connect back over loopback TCP, and merges the per-window
results back deterministically:

* every worker rebuilds an identical :class:`PrivateTradingEngine` from a
  pickled :class:`EngineSpec` — key material is derived from stable
  identities (see :class:`repro.core.protocols.context.KeyRing`), so the
  worker reconstructs exactly the keys/pools a serial run would use;
* a forked worker *inherits* only the code and the process-wide base-OT
  correlation, which the parent establishes once before it fans a
  multi-shard plan out (:func:`repro.crypto.otext.shared_correlation`;
  instance tags are CSPRNG-drawn, so workers extending one correlation
  derive disjoint pads) — the dataset arrives in its payload, and the
  engine, the key slots and every pool are *rebuilt*, empty, because pool
  contents are one-shot and must never cross a fork.  Where ``fork`` is
  unavailable nothing is inherited and a worker establishes its own
  correlation lazily;
* battery state is advanced from window 0 inside each worker, so shard
  windows see the same agent states as a full-day serial run;
* traces are re-assembled in ascending window order, and the merged
  :class:`~repro.net.stats.TrafficStats` is built by folding the
  *per-window* stats in that same order — float accumulation order is
  therefore identical no matter how many workers ran, which is what makes
  ``workers=N`` bit-for-bit identical to serial.

Wall-clock vs. simulated speedup: the repo's canonical runtime metric is
the calibrated cost model's *simulated* time (host wall-clock of a pure
Python in-process simulation mostly measures the interpreter — see
:mod:`repro.net.costmodel`).  :class:`RunReport` therefore exposes both the
host wall-clock of the run and the simulated day runtime under the plan
(``max`` over shards of each shard's summed per-window seconds), which is
the Fig. 5-style quantity that scales near-linearly with workers.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import selectors
import signal
import socket
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..crypto.otext import shared_correlation
from ..net.costmodel import pipelined_day_cost, unpipelined_day_cost
from ..net.stats import TrafficStats
from ..net.transport import _ACK_TIMEOUT_S, recv_frame, send_frame
from .pipeline import WindowPipeline
from .plan import ExecutionPlan
from .refill import BackgroundRefiller
from .supervisor import Incident

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from ..core.protocols.engine import PrivateTradingEngine, PrivateWindowTrace

__all__ = ["EngineSpec", "RunReport", "ParallelRunner"]


@dataclass(frozen=True)
class EngineSpec:
    """Everything needed to rebuild a ``PrivateTradingEngine`` in a worker.

    All three members are (frozen) dataclasses, so the spec pickles cleanly
    into a shard payload.
    """

    params: Any
    config: Any
    cost_model: Any

    @classmethod
    def from_engine(cls, engine: "PrivateTradingEngine") -> "EngineSpec":
        return cls(
            params=engine.params, config=engine.config, cost_model=engine.cost_model
        )

    def build(self) -> "PrivateTradingEngine":
        from ..core.protocols.engine import PrivateTradingEngine

        return PrivateTradingEngine(
            params=self.params, config=self.config, cost_model=self.cost_model
        )


@dataclass(frozen=True)
class _ShardPayload:
    """Pickled work order for one worker process, dataset included."""

    shard_index: int
    spec: EngineSpec
    dataset: Any
    windows: Tuple[int, ...]
    home_count: Optional[int]
    battery_policy: Any
    reuse_network: bool
    background_refill: bool
    refill_target: int
    #: the run's global first window — the day-scope session anchor every
    #: worker must agree on (see :mod:`repro.net.session`).
    session_anchor: Optional[int] = None
    #: chaos hook: a worker receiving this SIGKILLs itself after
    #: its first window (see ``FaultPlan.kill_shards``); the parent
    #: respawns the shard with the flag stripped.
    chaos_kill: bool = False
    #: run the shard behind a :class:`WindowPipeline` stage — window W+1's
    #: offline material is pre-staged during window W's online phase.
    pipeline: bool = False


@dataclass
class _ShardOutcome:
    """What one worker sends back."""

    shard_index: int
    traces: List["PrivateWindowTrace"]
    window_stats: List[TrafficStats]
    wall_seconds: float
    stocked: int = 0
    #: classified incidents of this shard's supervised windows.
    incidents: List[Incident] = field(default_factory=list)
    #: offline values the shard's pipeline stage pre-staged (0 unpipelined).
    pipeline_reserved: int = 0


def _run_payload(engine: "PrivateTradingEngine", payload: _ShardPayload) -> _ShardOutcome:
    """Run one shard serially on ``engine`` (shared by inline and workers)."""
    start = time.perf_counter()
    refiller = (
        BackgroundRefiller(engine.keyring, target=payload.refill_target)
        if payload.background_refill
        else None
    )
    if refiller is not None:
        refiller.start()
    pipeline = (
        WindowPipeline(engine.keyring, payload.windows) if payload.pipeline else None
    )
    try:
        traces, window_stats = engine.execute_shard(
            payload.dataset,
            payload.windows,
            home_count=payload.home_count,
            battery_policy=payload.battery_policy,
            reuse_network=payload.reuse_network,
            collect_stats=True,
            session_anchor=payload.session_anchor,
            pipeline=pipeline,
        )
    finally:
        if pipeline is not None:
            pipeline.close()
        if refiller is not None:
            refiller.stop()
    return _ShardOutcome(
        shard_index=payload.shard_index,
        traces=traces,
        window_stats=window_stats,
        wall_seconds=time.perf_counter() - start,
        stocked=refiller.total_stocked if refiller is not None else 0,
        incidents=[
            replace(incident, shard_index=payload.shard_index)
            for incident in engine.last_shard_incidents
        ],
        pipeline_reserved=pipeline.total_reserved if pipeline is not None else 0,
    )


def _socket_shard_worker(host: str, port: int) -> None:
    """Worker entry point.

    Connects back to the parent's shard server, reads one pickled
    :class:`_ShardPayload` frame (dataset included — the only thing a
    worker takes from a forking parent is the standing base-OT
    correlation), executes it, and ships the pickled
    :class:`_ShardOutcome` back over the same connection.  The wire format
    is the same length-prefixed framing the message-level
    :class:`~repro.net.transport.SocketTransport` speaks.

    A failing shard ships its *exception* back instead of dying silently,
    so the parent can distinguish a deliberate fail-closed abort (which
    must propagate) from a killed worker (which the parent respawns).  A
    payload flagged ``chaos_kill`` executes its first window for real and
    then SIGKILLs itself — the chaos engine's mid-shard worker-loss fault.
    """
    with socket.create_connection((host, port)) as conn:
        frame = recv_frame(conn)
        if frame is None:  # pragma: no cover - parent died before sending
            return
        payload: _ShardPayload = pickle.loads(frame)
        if payload.chaos_kill:
            probe = replace(
                payload, windows=tuple(payload.windows)[:1], chaos_kill=False
            )
            _run_payload(probe.spec.build(), probe)
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            outcome: Any = _run_payload(payload.spec.build(), payload)
        except BaseException as exc:  # ship the failure, don't die silently
            outcome = exc
        send_frame(conn, pickle.dumps(outcome))


@dataclass
class RunReport:
    """Merged outcome of a (possibly sharded) multi-window run.

    Attributes:
        plan: the execution plan that was run.
        traces: one trace per window, ascending window order.
        stats: per-window traffic statistics folded in window order — for
            the default fresh-network-per-window mode this is bit-identical
            across any worker count.
        wall_seconds: host wall-clock of the whole run (bounded by the
            machine's real core count — informational only).
        shard_wall_seconds: host wall-clock per shard.
        background_stocked: obfuscators precomputed by background refillers
            across all workers.
        incidents: the run's classified incident ledger (chaos injections,
            organic failures, killed-and-respawned workers), in
            deterministic window order.  Empty for unsupervised runs.
        pipeline_reserved: offline values the shards' pipeline stages
            pre-staged across all workers (0 for unpipelined runs —
            wall-clock telemetry, deliberately outside ``identical_to``).
    """

    plan: ExecutionPlan
    traces: List["PrivateWindowTrace"] = field(default_factory=list)
    stats: TrafficStats = field(default_factory=TrafficStats)
    wall_seconds: float = 0.0
    shard_wall_seconds: Tuple[float, ...] = ()
    background_stocked: int = 0
    incidents: List[Incident] = field(default_factory=list)
    pipeline_reserved: int = 0

    def identical_to(self, other: "RunReport", include_incidents: bool = True) -> bool:
        """Bit-for-bit equality of traces and merged stats with ``other``.

        The canonical determinism certificate: every ``WindowResult``,
        per-trace measurement and merged ``TrafficStats`` aggregate must
        match exactly (floats compared with ``==``).  Used by the parallel
        benchmarks and examples so they all enforce the same definition.

        With ``include_incidents`` (the default) the incident ledgers must
        match too — two runs of the same fault plan certify each other.
        Pass ``include_incidents=False`` to certify a *recovered* chaos run
        against a fault-free baseline: the result/stats fields must still
        be bit-identical, but the chaos run is allowed (expected) to carry
        the incidents the baseline never saw.
        """
        if include_incidents:
            ours = tuple(i.signature() for i in self.incidents)
            theirs = tuple(i.signature() for i in other.incidents)
            if ours != theirs:
                return False
        if len(self.traces) != len(other.traces):
            return False
        for a, b in zip(self.traces, other.traces):
            if not (
                a.result == b.result
                and a.bandwidth_bytes == b.bandwidth_bytes
                and a.protocol_bandwidth_bytes == b.protocol_bandwidth_bytes
                and a.simulated_runtime_seconds == b.simulated_runtime_seconds
                and a.offline_seconds == b.offline_seconds
                and a.gc_offline_seconds == b.gc_offline_seconds
                and a.pipeline_overlap_seconds == b.pipeline_overlap_seconds
                and a.pool_fallback_count == b.pool_fallback_count
                and a.gc_fallback_count == b.gc_fallback_count
                and a.market_evaluation_leader_ids == b.market_evaluation_leader_ids
                and a.pricing_leader_id == b.pricing_leader_id
                and a.ratio_holder_id == b.ratio_holder_id
            ):
                return False
        s, o = self.stats, other.stats
        return (
            s.snapshot() == o.snapshot()
            and s.total_messages == o.total_messages
            and s.total_bytes == o.total_bytes
            and dict(s.bytes_by_kind) == dict(o.bytes_by_kind)
            and s.simulated_seconds == o.simulated_seconds
            and s.offline_seconds == o.offline_seconds
            and s.gc_offline_seconds == o.gc_offline_seconds
            and s.pipeline_overlap_seconds == o.pipeline_overlap_seconds
            and s.pool_fallbacks == o.pool_fallbacks
            and s.gc_fallbacks == o.gc_fallbacks
            and dict(s.aggregation_hops) == dict(o.aggregation_hops)
            and dict(s.aggregation_rounds) == dict(o.aggregation_rounds)
            and s.sessions_established == o.sessions_established
            and s.sessions_reused == o.sessions_reused
        )

    # -- simulated-clock aggregates (the paper's runtime metric) ---------------

    def shard_simulated_seconds(self) -> Tuple[float, ...]:
        """Summed per-window simulated online seconds, per shard."""
        by_window = {t.result.window: t.simulated_runtime_seconds for t in self.traces}
        return tuple(
            sum(by_window.get(w, 0.0) for w in shard) for shard in self.plan.shards
        )

    @property
    def serial_simulated_seconds(self) -> float:
        """Simulated day runtime if every window ran back-to-back."""
        return sum(t.simulated_runtime_seconds for t in self.traces)

    @property
    def parallel_simulated_seconds(self) -> float:
        """Simulated day runtime under the plan: the slowest shard's sum."""
        per_shard = self.shard_simulated_seconds()
        return max(per_shard) if per_shard else 0.0

    @property
    def simulated_speedup(self) -> float:
        """Fig. 5-style day speedup of the plan over serial execution."""
        parallel = self.parallel_simulated_seconds
        if parallel <= 0.0:
            return 1.0
        return self.serial_simulated_seconds / parallel

    # -- pipelined-clock aggregates (offline/online overlap) -------------------

    def shard_phase_seconds(self) -> Tuple[Tuple[Tuple[float, float], ...], ...]:
        """Per shard: one ``(offline, online)`` pair per window, in order.

        ``offline`` is the window's full precompute clock
        (``offline_seconds + gc_offline_seconds``), ``online`` its
        interactive phase (``simulated_runtime_seconds``).  These are the
        phase sequences :func:`repro.net.costmodel.pipelined_day_cost` and
        :func:`~repro.net.costmodel.unpipelined_day_cost` consume, and —
        because per-window traces are a pure function of the window — they
        are identical whether or not the run actually pipelined.
        """
        by_window = {t.result.window: t for t in self.traces}
        return tuple(
            tuple(
                (
                    by_window[w].offline_seconds + by_window[w].gc_offline_seconds,
                    by_window[w].simulated_runtime_seconds,
                )
                for w in shard
                if w in by_window
            )
            for shard in self.plan.shards
        )

    @property
    def unpipelined_simulated_seconds(self) -> float:
        """Simulated day runtime with offline and online phases serialized.

        The slowest shard's ``sum(offline_i + online_i)`` — what the day
        costs when every window exponentiates and garbles inline before
        trading.
        """
        per_shard = self.shard_phase_seconds()
        return max(
            (unpipelined_day_cost(phases) for phases in per_shard), default=0.0
        )

    @property
    def pipelined_simulated_seconds(self) -> float:
        """Simulated day runtime with W+1's offline phase hidden under W.

        The slowest shard's
        ``offline_0 + sum(max(online_i, offline_i+1)) + online_last``
        (:func:`repro.net.costmodel.pipelined_day_cost`): each pipeline
        slot is charged the max of the two overlapped phases instead of
        their sum, mirroring ``layered_cost``.
        """
        per_shard = self.shard_phase_seconds()
        return max((pipelined_day_cost(phases) for phases in per_shard), default=0.0)

    @property
    def pipeline_speedup(self) -> float:
        """Day speedup of pipelined over unpipelined phase scheduling."""
        pipelined = self.pipelined_simulated_seconds
        if pipelined <= 0.0:
            return 1.0
        return self.unpipelined_simulated_seconds / pipelined

    @property
    def pipeline_hidden_seconds(self) -> float:
        """Offline seconds the pipeline hides under online phases."""
        return self.unpipelined_simulated_seconds - self.pipelined_simulated_seconds


class ParallelRunner:
    """Executes an :class:`ExecutionPlan` and merges results deterministically.

    A single-shard plan runs inline on the caller's engine; every shard of
    a multi-shard plan goes to its own worker process over a loopback TCP
    connection (:meth:`_run_socket`) — the shape of a deployment that fans
    shards out to separate machines.  Workers are forked where the
    platform allows; they must be able to import :mod:`repro` — the
    test/benchmark entry points already export ``PYTHONPATH=src``.

    Args:
        plan: the window sharding to execute.
        background_refill: run a :class:`BackgroundRefiller` next to every
            shard (and the inline path) so pool warm-ups pop precomputed
            reservoir values instead of exponentiating during window setup.
        refill_target: reservoir fill level the refillers maintain.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        background_refill: bool = False,
        refill_target: int = 32,
    ) -> None:
        self.plan = plan
        self.background_refill = background_refill
        self.refill_target = refill_target

    # -- execution -------------------------------------------------------------

    def run(
        self,
        engine: "PrivateTradingEngine",
        dataset: Any,
        home_count: Optional[int] = None,
        battery_policy: Any = None,
        reuse_network: bool = False,
    ) -> RunReport:
        """Run the plan for ``engine``'s configuration over ``dataset``.

        Single-shard plans execute inline on the given engine (no process
        is spawned); multi-shard plans rebuild the engine per worker from
        an :class:`EngineSpec`.  Either way the merged report is identical.
        """
        started = time.perf_counter()
        plan = self.plan
        if plan.workers == 0:
            return RunReport(plan=plan)
        if plan.pipeline and getattr(engine.config, "session_scope", None) != "day":
            raise ValueError(
                "ExecutionPlan.pipeline requires session_scope='day': "
                "pre-staged offline material must survive the window "
                "boundary it is staged across, which window-scoped "
                f"sessions forbid (engine scope: "
                f"{getattr(engine.config, 'session_scope', None)!r})"
            )

        inline = plan.workers == 1
        session_anchor = min(plan.windows)
        # Only a worker process can be killed; the inline path ignores it.
        fault_plan = getattr(engine.config, "fault_plan", None)
        kill_shards = fault_plan.kill_shards if fault_plan is not None else ()
        payloads = [
            _ShardPayload(
                shard_index=index,
                spec=EngineSpec.from_engine(engine),
                dataset=dataset,
                windows=shard,
                home_count=home_count,
                battery_policy=battery_policy,
                reuse_network=reuse_network,
                background_refill=self.background_refill,
                refill_target=self.refill_target,
                session_anchor=session_anchor,
                chaos_kill=index in kill_shards,
                pipeline=plan.pipeline,
            )
            for index, shard in enumerate(plan.shards)
        ]

        worker_incidents: List[Incident] = []
        if not inline and engine.config.use_comparison_pool:
            # Establish once, fork after: every worker forked below (and any
            # respawned replacement) inherits the standing base-OT
            # correlation instead of running its own kappa public-key OTs.
            shared_correlation(engine.config.ot_extension_kappa)
        if inline:
            outcomes = [_run_payload(engine, payloads[0])]
        else:
            outcomes = self._run_socket(payloads, worker_incidents)

        report = self._merge(plan, outcomes, worker_incidents)
        report.wall_seconds = time.perf_counter() - started
        return report

    # -- socket shard fan-out ----------------------------------------------------

    #: How many times one shard's worker may die (and be respawned) before
    #: the run fails closed instead of retrying forever.
    MAX_RESPAWNS_PER_SHARD = 2

    def _run_socket(
        self,
        payloads: Sequence[_ShardPayload],
        worker_incidents: List[Incident],
    ) -> List[_ShardOutcome]:
        """Ship shard payloads to worker processes over loopback TCP.

        The parent opens one listening socket; every worker process
        connects back, receives its pickled payload (dataset included —
        no work travels through fork-inherited state), executes
        the shard, and returns the pickled outcome over the same
        connection.  Workers are matched to payloads by arrival order —
        payloads carry their ``shard_index``, so the merge stays
        deterministic no matter which worker connects first.

        Accepting new connections and draining finished workers' outcomes
        are multiplexed through one selector loop: a fast worker's outcome
        is read while slower workers are still connecting (so a sender
        never blocks on a full socket buffer waiting for the parent), and
        a worker that dies before connecting back (bootstrap failure, OOM
        kill) fails the run instead of hanging it — once every exited
        process is accounted for by a served connection, an extra death
        means a connection that will never come.

        Recovery: a worker that dies *after* connecting (its connection
        hits EOF with no outcome — e.g. a ``chaos_kill`` SIGKILL, or a real
        OOM kill) is respawned and its whole shard payload re-enqueued with
        the kill flag stripped, up to :data:`MAX_RESPAWNS_PER_SHARD` per
        shard.  The respawned worker rebuilds its engine from scratch, so
        the re-run recomputes every shard window exactly as a clean run
        would — the dead worker's partial work is discarded wholesale and
        the merged report stays bit-identical.  Each loss is recorded as a
        ``worker_loss`` incident in ``worker_incidents``.  A worker that
        instead *ships an exception* (a fail-closed ``WindowAbortError``)
        has that exception re-raised here — deliberate aborts propagate,
        they are never retried at the shard level.

        Deadline: the selector waits for a shard as long as it takes, but
        once a connection is writable/readable every ``send``/``recv`` on
        it is bounded by the transport's ack deadline — a worker that
        stops reading its payload or stalls mid-frame is treated exactly
        like one that died (same incident, same respawn cap), and a worker
        still alive that long after its connection closed is terminated.
        """
        try:  # fork where available: workers inherit the standing correlation
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = multiprocessing.get_context()
        outcomes: List[_ShardOutcome] = []
        processes: List[Any] = []
        connections: List[socket.socket] = []
        pending: List[_ShardPayload] = list(payloads)
        respawns: Dict[int, int] = {}
        try:
            with socket.create_server(("127.0.0.1", 0)) as server:
                host, port = server.getsockname()[:2]

                def spawn_worker() -> None:
                    process = context.Process(
                        target=_socket_shard_worker, args=(host, port)
                    )
                    process.start()
                    processes.append(process)

                for _ in payloads:
                    spawn_worker()
                conn_payloads: Dict[socket.socket, _ShardPayload] = {}
                with selectors.DefaultSelector() as selector:
                    selector.register(server, selectors.EVENT_READ)
                    while len(outcomes) < len(payloads):
                        events = selector.select(timeout=0.5)
                        if not events:
                            dead = sum(1 for p in processes if p.exitcode is not None)
                            if dead > len(connections):
                                raise RuntimeError(
                                    "socket shard worker exited before "
                                    "connecting back (see worker stderr)"
                                )
                            continue
                        for key, _ in events:
                            # A send/recv that misses the deadline reads
                            # as EOF: the worker is lost (see docstring).
                            if key.fileobj is server:
                                conn, _ = server.accept()
                                conn.settimeout(_ACK_TIMEOUT_S)
                                payload = pending.pop(0)
                                connections.append(conn)
                                conn_payloads[conn] = payload
                                try:
                                    send_frame(conn, pickle.dumps(payload))
                                except socket.timeout:
                                    frame = None
                                else:
                                    selector.register(conn, selectors.EVENT_READ)
                                    continue
                            else:
                                conn = key.fileobj
                                selector.unregister(conn)
                                try:
                                    frame = recv_frame(conn)
                                except socket.timeout:
                                    frame = None
                            if frame is None:
                                # The worker died (or stalled) mid-shard with
                                # no outcome: respawn and re-run the shard.
                                lost = conn_payloads.pop(conn)
                                shard = lost.shard_index
                                respawns[shard] = respawns.get(shard, 0) + 1
                                if respawns[shard] > self.MAX_RESPAWNS_PER_SHARD:
                                    raise RuntimeError(
                                        f"socket shard worker for shard {shard} "
                                        f"died {respawns[shard]} times; "
                                        "giving up (see worker stderr)"
                                    )
                                worker_incidents.append(
                                    Incident(
                                        window=None,
                                        fault="worker_kill",
                                        classification="worker_loss",
                                        action="respawn",
                                        attempt=respawns[shard] - 1,
                                        recovered=True,
                                        detail=(
                                            f"shard {shard} worker connection hit "
                                            "EOF or its deadline before returning "
                                            "an outcome; shard re-enqueued on a "
                                            "fresh worker"
                                        ),
                                        shard_index=shard,
                                    )
                                )
                                pending.append(replace(lost, chaos_kill=False))
                                spawn_worker()
                                continue
                            result = pickle.loads(frame)
                            if isinstance(result, BaseException):
                                # A deliberate fail-closed abort from a
                                # supervised window — propagate, never
                                # retry an integrity violation here.
                                raise result
                            conn_payloads.pop(conn, None)
                            outcomes.append(result)
        finally:
            for conn in connections:
                conn.close()
            # The server and every accepted connection are closed by now,
            # so a worker still blocked on its socket sees EOF/reset and
            # exits — joining here cannot deadlock on the error path.  A
            # stalled worker that never touches its socket again is killed
            # once the same deadline passes.
            for process in processes:
                process.join(_ACK_TIMEOUT_S)
                if process.is_alive():
                    process.terminate()
                    process.join()
        return outcomes

    # -- deterministic merge -----------------------------------------------------

    @staticmethod
    def _merge(
        plan: ExecutionPlan,
        outcomes: Sequence[_ShardOutcome],
        worker_incidents: Sequence[Incident] = (),
    ) -> RunReport:
        ordered = sorted(outcomes, key=lambda o: o.shard_index)
        traces: List["PrivateWindowTrace"] = []
        keyed_stats: List[Tuple[int, TrafficStats]] = []
        extra_stats: List[TrafficStats] = []
        for outcome in ordered:
            traces.extend(outcome.traces)
            if len(outcome.window_stats) == len(outcome.traces):
                # Fresh-network mode: one stats object per window.
                for trace, stats in zip(outcome.traces, outcome.window_stats):
                    keyed_stats.append((trace.result.window, stats))
            else:
                # reuse_network mode: one accumulated stats object per shard.
                extra_stats.extend(outcome.window_stats)
        traces.sort(key=lambda t: t.result.window)

        merged = TrafficStats()
        # Window order first (bit-stable regardless of sharding), then any
        # shard-level leftovers in shard order.
        for _, stats in sorted(keyed_stats, key=lambda pair: pair[0]):
            merged.merge(stats)
        for stats in extra_stats:
            merged.merge(stats)

        # Window order first (shard-independent), shard-level worker-loss
        # incidents (window None) last — the ledger order is deterministic
        # for a given fault plan no matter how windows were sharded.
        incidents = [i for o in ordered for i in o.incidents]
        incidents.extend(worker_incidents)
        incidents.sort(
            key=lambda i: (
                i.window if i.window is not None else 10**9,
                i.attempt,
                i.fault,
            )
        )

        return RunReport(
            plan=plan,
            traces=traces,
            stats=merged,
            shard_wall_seconds=tuple(o.wall_seconds for o in ordered),
            background_stocked=sum(o.stocked for o in ordered),
            incidents=incidents,
            pipeline_reserved=sum(o.pipeline_reserved for o in ordered),
        )
