"""One benchmark run: set-up, warm-up, measured passes, correctness gate.

A run executes one workload for ``--seconds``.  The market windows of one
*pass* are a fixed list (strided over the market-eligible windows of the
pinned 720-window day, phase taken from ``--seed``); a run repeats whole
passes until the time is up, so every per-window count repeats exactly no
matter how fast the host is.  Live passes are the loop
``PrivateTradingEngine.execute_shard`` runs, written with public calls so
each window can be timed; replay passes submit the whole window list to
``run_windows_report`` with two forked workers and settle it on chain.

Every pass repeats the same *segments* (a selected window with the battery
replay leading up to it; a whole replay).  The host is a shared VM whose
speed moves under its neighbours' load, so a fixed probe kernel is read
between segments and every repeat is scaled to the host at its best;
throughput and CPU are built from each segment's median repeat, the window
percentiles from every repeat pooled (see :class:`perfbench.host.HostProbe`,
:meth:`_Phase.typical_segments`, :meth:`_Phase.window_samples`).

``trace=False`` measures the end-to-end metrics with no wrapper installed.
``trace=True`` alternates untraced reference passes with passes under
:class:`perfbench.tracing.Tracer`; the difference between the two is the
tracing overhead.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import repro.data
from repro.blockchain import (
    ConsortiumChain,
    RoundRobinConsensus,
    SettlementContract,
    Validator,
)
from repro.core import PAPER_PARAMETERS, PlainTradingEngine
from repro.core import pem
from repro.core.market import MarketCase
from repro.core.protocols import PrivateTradingEngine, ProtocolConfig
from repro.core.results import WindowResult
from repro.data import WINDOWS_PER_DAY, TraceConfig, TraceDataset, iter_windows
from repro.net.session import SessionManager
from repro.runtime import EngineSpec, RunReport

from . import host
from .tracing import SpanTotals, Tracer
from .workloads import (
    END_TO_END,
    PER_LAYER,
    REPLAY_WORKERS,
    TRACE_DAY_SEED,
    Workload,
)

__all__ = ["RunResult", "run_once", "build_setup", "ROOT", "OUT_DIR"]

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3

#: Host-probe readings taken on either side of a whole replay.
REPLAY_PROBE_READINGS = 5

#: Validator homes of the settlement consortium (as in
#: ``examples/blockchain_settlement.py``).
VALIDATOR_COUNT = 5


@dataclass
class RunResult:
    """What one run measured, in the shape the benchmark contract prints."""

    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    #: everything else worth keeping: passes, raw stopwatch readings, the
    #: host probe's readings, failure messages.
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


# -- set-up ----------------------------------------------------------------------


def build_setup(workload: Workload, seed: int) -> Tuple[TraceDataset, PrivateTradingEngine]:
    """What a user pays before the first window: traces, engine, every key."""
    dataset = repro.data.generate_dataset(
        TraceConfig(
            home_count=workload.homes, window_count=WINDOWS_PER_DAY, seed=TRACE_DAY_SEED
        )
    )
    engine = PrivateTradingEngine(
        PAPER_PARAMETERS, ProtocolConfig(seed=seed, **workload.config)
    )
    for home in dataset.homes:
        engine.keyring.keypair_for(home.profile.home_id)
    return dataset, engine


def _probe_setup(
    workload: Workload, seed: int, probe: host.HostProbe
) -> Tuple[float, float]:
    """One set-up in a fresh interpreter: ``(wall, host reading around it)``.

    The wall covers interpreter start, import and :func:`build_setup`.
    """
    command = [
        sys.executable, "-m", "perfbench", "--setup-probe",
        "--workload", workload.name, "--seed", str(seed),
    ]  # fmt: skip
    host_before = probe.read_median(3)
    started = time.perf_counter()
    # No timeout: waiting with one polls, which rounds the wall up to 50 ms steps.
    subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - started
    return wall, (host_before + probe.read_median(3)) / 2


def _select_windows(
    dataset: TraceDataset, workload: Workload, seed: int
) -> Tuple[List[int], int, Dict[int, WindowResult]]:
    """The pass's window list, a warm-up window outside it, and the oracle.

    Windows are strided evenly over the market-eligible windows of the day
    (as ``repro.analysis.sample_market_windows`` does), with the stride's
    phase taken from the seed.  The plaintext engine finds the eligible
    windows and its results are the reference every private window is
    checked against.
    """
    day = PlainTradingEngine(PAPER_PARAMETERS).run_day(dataset)
    reference = {result.window: result for result in day.windows}
    eligible = [r.window for r in day.windows if r.case is not MarketCase.NO_MARKET]
    count = workload.windows_per_pass
    if len(eligible) <= count:
        raise ValueError(
            f"{workload.name}: {len(eligible)} market windows cannot supply "
            f"{count} plus a warm-up window"
        )
    step = len(eligible) / count
    phase = (seed % 997) / 997 * step
    windows = [eligible[int(phase + index * step)] for index in range(count)]
    chosen = set(windows)
    warmup = next(window for window in eligible if window not in chosen)
    return windows, warmup, reference


# -- tallies ---------------------------------------------------------------------


class Segment(NamedTuple):
    """One timed stretch of a pass; every pass has the same segments.

    On live workloads a segment is one selected window together with the
    battery replay that leads up to it; on the replay workload the whole
    replay is one segment.
    """

    #: market windows the segment completes.
    windows: int
    #: wall of the whole segment.
    wall: float
    #: user + system CPU of the process (and waited-for children) over it.
    cpu: float
    #: wall per window of the part a user waits for: open network +
    #: ``run_window`` + close (live), the replay's wall / its windows.
    window_wall: float
    #: the host probe's reading around the segment (see ``host.HostProbe``).
    host: float


@dataclass
class Tally:
    """What a pass (or a phase of passes) did, folded window by window."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    segments: List[Segment] = field(default_factory=list)
    bytes: int = 0
    messages: int = 0
    sessions_established: int = 0
    sessions_reused: int = 0
    pool_fallbacks: int = 0
    gc_fallbacks: int = 0
    obfuscators: int = 0
    charged_online: float = 0.0
    charged_offline: float = 0.0
    charged_gc_offline: float = 0.0
    blocks: int = 0
    transactions: int = 0
    pipeline_reserved: int = 0
    #: ``(run wall, shard walls)`` of every sharded replay.
    shard_runs: List[Tuple[float, Tuple[float, ...]]] = field(default_factory=list)
    last_report: Optional[RunReport] = None

    def fail(self, message: str, windows: int = 1) -> None:
        self.failed += windows
        self.failures.append(message)

    def check(self, trace, reference: WindowResult) -> None:
        """Gate one private window against the plaintext oracle."""
        self.attempted += 1
        self.bytes += trace.bandwidth_bytes
        self.pool_fallbacks += trace.pool_fallback_count
        self.gc_fallbacks += trace.gc_fallback_count
        self.charged_online += trace.simulated_runtime_seconds
        self.charged_offline += trace.offline_seconds
        self.charged_gc_offline += trace.gc_offline_seconds
        result = trace.result
        window = result.window
        # Tolerances of tests/integration/test_private_vs_plain.py.
        if result.case is not reference.case:
            self.fail(f"window {window}: case {result.case} != plain {reference.case}")
        elif abs(result.clearing_price - reference.clearing_price) > 1e-2:
            self.fail(
                f"window {window}: price {result.clearing_price} != plain "
                f"{reference.clearing_price}"
            )
        elif not math.isclose(
            result.buyer_coalition_cost,
            reference.buyer_coalition_cost,
            rel_tol=1e-3,
            abs_tol=1e-6,
        ):
            self.fail(
                f"window {window}: buyer cost {result.buyer_coalition_cost} != "
                f"plain {reference.buyer_coalition_cost}"
            )
        elif trace.pool_fallback_count or trace.gc_fallback_count:
            # A drained pool means the workload measured the fallback path.
            self.fail(
                f"window {window}: {trace.pool_fallback_count} pool / "
                f"{trace.gc_fallback_count} gc fallbacks"
            )

    def counts(self) -> Tuple[int, ...]:
        """The counts every pass of a run must reproduce exactly."""
        return (
            self.attempted,
            self.bytes,
            self.messages,
            self.sessions_established,
            self.sessions_reused,
            self.blocks,
            self.transactions,
        )

    def merge(self, other: "Tally") -> None:
        for name, value in vars(other).items():
            if name == "last_report":
                self.last_report = value or self.last_report
            elif isinstance(value, list):
                getattr(self, name).extend(value)
            else:
                setattr(self, name, getattr(self, name) + value)


# -- passes ----------------------------------------------------------------------


@dataclass
class _Context:
    workload: Workload
    dataset: TraceDataset
    engine: PrivateTradingEngine
    reference: Dict[int, WindowResult]
    tracer: Optional[Tracer]
    probe: host.HostProbe
    #: segments a pass times when no window raises.
    segments_per_pass: int


def _live_pass(ctx: _Context, windows: Sequence[int], pass_index: int) -> Tally:
    """One day's selected windows, the way ``execute_shard`` runs them.

    Battery state is advanced over every window up to the last selected
    one; each selected window gets a fresh network, as in a serial run.
    """
    engine, tracer, tally = ctx.engine, ctx.tracer, Tally()
    clock, cpu_clock = time.perf_counter, time.process_time
    host_before = ctx.probe.read()
    segment_started, segment_cpu = clock(), cpu_clock()
    agents = pem.build_agents(ctx.dataset)
    engine.sessions = SessionManager(engine.config.session_scope, anchor_window=windows[0])
    produced_before = sum(pool.produced for pool in engine.keyring.randomizer_pools)
    wanted = set(windows)
    for window_slice in iter_windows(ctx.dataset, stop=windows[-1] + 1):
        window = window_slice.window
        if tracer is not None:
            tracer.trace_id = (pass_index, window)
        states = pem.states_for_window(agents, window_slice)
        if window not in wanted:
            continue
        started = clock()
        try:
            network = engine.build_network()
            try:
                trace = engine.run_window(window, states, network=network)
            finally:
                network.close()
        except Exception:  # a window that raises is a failed window, not a failed run
            tally.attempted += 1
            tally.fail(f"window {window} raised:\n{traceback.format_exc()}")
            # It belongs to no segment: the next one starts here.
            host_before = ctx.probe.read()
            segment_started, segment_cpu = clock(), cpu_clock()
            continue
        ended, ended_cpu = clock(), cpu_clock()
        host_after = ctx.probe.read()
        tally.segments.append(
            Segment(
                1,
                ended - segment_started,
                ended_cpu - segment_cpu,
                ended - started,
                (host_before + host_after) / 2,
            )
        )
        host_before = host_after
        stats = network.stats
        tally.messages += stats.total_messages
        tally.sessions_established += stats.sessions_established
        tally.sessions_reused += stats.sessions_reused
        tally.check(trace, ctx.reference[window])
        # The probe and the oracle check belong to the benchmark, not to the segment.
        segment_started, segment_cpu = clock(), cpu_clock()
    tally.obfuscators = (
        sum(pool.produced for pool in engine.keyring.randomizer_pools) - produced_before
    )
    return tally


def _replay_pass(
    ctx: _Context, windows: Sequence[int], pass_index: int, workers: int
) -> Tally:
    """One whole replay: fresh engine, sharded pipelined run, settle, verify."""
    tracer, tally, homes = ctx.tracer, Tally(), ctx.workload.homes
    if tracer is not None:
        tracer.trace_id = (pass_index, -1)
    # A replay is long enough to average the host's millisecond bursts by
    # itself; a few readings on either side tell which hour it ran in.
    host_before = ctx.probe.read_median(REPLAY_PROBE_READINGS)
    started, started_cpu = time.perf_counter(), host.cpu_seconds()
    try:
        engine = PrivateTradingEngine(PAPER_PARAMETERS, ctx.engine.config)
        report = engine.run_windows_report(
            ctx.dataset, windows, home_count=homes, workers=workers, pipeline=True
        )
        validators = [
            Validator(home.profile.home_id) for home in ctx.dataset.homes[:VALIDATOR_COUNT]
        ]
        contract = SettlementContract(
            chain=ConsortiumChain(consensus=RoundRobinConsensus(validators=validators))
        )
        blocks = contract.settle_day(
            trace.result.clearing
            for trace in report.traces
            if trace.result.clearing is not None
        )
        verified = contract.chain.verify()
    except Exception:  # a replay that raises fails all its windows
        tally.attempted += len(windows)
        tally.fail(f"replay raised:\n{traceback.format_exc()}", windows=len(windows))
        return tally
    wall = time.perf_counter() - started
    cpu = host.cpu_seconds() - started_cpu
    host_after = ctx.probe.read_median(REPLAY_PROBE_READINGS)
    tally.segments.append(
        Segment(len(windows), wall, cpu, wall / len(windows), (host_before + host_after) / 2)
    )
    for trace in report.traces:
        tally.check(trace, ctx.reference[trace.result.window])
    if len(report.traces) != len(windows):
        tally.fail(f"replay returned {len(report.traces)} of {len(windows)} windows")
    if not verified:
        tally.fail("settled chain failed verify()")
    tally.messages = report.stats.total_messages
    tally.sessions_established = report.stats.sessions_established
    tally.sessions_reused = report.stats.sessions_reused
    tally.blocks = len(blocks)
    tally.transactions = sum(len(block.transactions) for block in blocks)
    tally.pipeline_reserved = report.pipeline_reserved
    tally.last_report = report
    if workers > 1:
        tally.shard_runs.append((report.wall_seconds, report.shard_wall_seconds))
    else:
        # Inline replays run on the engine built here, so its pools are visible.
        tally.obfuscators = sum(p.produced for p in engine.keyring.randomizer_pools)
    return tally


@dataclass
class _Phase:
    """Whole passes of one kind, repeated."""

    #: segments of a pass in which no window raised.
    segments_per_pass: int
    tally: Tally = field(default_factory=Tally)
    #: summed wall of the passes.
    wall: float = 0.0
    #: the segments of every pass, in pass order.
    pass_segments: List[List[Segment]] = field(default_factory=list)
    first_counts: Optional[Tuple[int, ...]] = None

    @property
    def passes(self) -> int:
        return len(self.pass_segments)

    def add(self, one: Tally, wall: float) -> None:
        """Fold one more pass in; it must count what the first pass counted."""
        self.pass_segments.append(one.segments)
        self.wall += wall
        if self.first_counts is None:
            self.first_counts = one.counts()
        elif one.counts() != self.first_counts:
            one.fail(f"pass {self.passes} counts {one.counts()} != first pass {self.first_counts}")
        self.tally.merge(one)

    @property
    def complete_passes(self) -> List[int]:
        """Indices of the passes that timed every segment (no window raised)."""
        return [
            index
            for index, segments in enumerate(self.pass_segments)
            if len(segments) == self.segments_per_pass
        ]

    def typical_segments(self, reference: float) -> List[Segment]:
        """Each segment of the pass on the host at its best.

        Every pass repeats the same segments.  Each repeat is scaled by
        ``reference / reading`` — what the host probe read at its best over
        what it read around that repeat — and the median over the complete
        passes is the segment's value: the scaling takes out how slow the
        host was, the median what the probe missed (``host.HostProbe`` has
        the measurements behind this).  Empty when no pass completed.
        """
        complete = [self.pass_segments[index] for index in self.complete_passes]

        def typical(group: Sequence[Segment], field: str) -> float:
            return statistics.median(getattr(s, field) * reference / s.host for s in group)

        return [
            Segment(
                group[0].windows,
                typical(group, "wall"),
                typical(group, "cpu"),
                typical(group, "window_wall"),
                reference,
            )
            for group in zip(*complete)
        ]

    def window_samples(self, reference: float) -> List[float]:
        """The host-scaled window wall of every repeat of every window, pooled.

        Unlike :meth:`typical_segments` nothing is collapsed: a window that
        is slow now and then (a collector pause, a socket stall, a pool
        refill) stays in the pool, so the percentiles over it can see it.
        """
        return [
            segment.window_wall * reference / segment.host
            for segments in self.pass_segments
            for segment in segments
        ]


def _timed_pass(phase: _Phase, run_pass: Callable[[int], Tally]) -> None:
    started = time.perf_counter()
    one = run_pass(phase.passes)
    phase.add(one, time.perf_counter() - started)


def _measure(run_pass: Callable[[int], Tally], seconds: float, segments_per_pass: int) -> _Phase:
    """Repeat whole passes until ``seconds`` have elapsed (at least one)."""
    phase = _Phase(segments_per_pass)
    started = time.perf_counter()
    while True:
        _timed_pass(phase, run_pass)
        if time.perf_counter() - started >= seconds:
            return phase


# -- one run ---------------------------------------------------------------------


def _percentile(samples: Sequence[float], fraction: float) -> float:
    """Percentile with linear interpolation between the two nearest ranks.

    A run is a time box, so the pool's size moves by a pass from run to
    run; interpolating keeps the value from jumping with the rank.
    """
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (ordered[above] - ordered[below]) * (position - below)


def run_once(
    workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> RunResult:
    """Run ``workload`` once and return what the contract prints.

    ``smoke`` is the seconds-long variant the tier-1 test runs: the caller
    passes ``workload.smoke()``, the process is not pinned (it is the test
    runner's) and ``setup_s`` is the one in-process set-up instead of the
    median of fresh-interpreter probes.
    """
    replay = workload.mode == "replay"
    # The replay workload keeps the allowed CPU set for its two workers.
    previous_affinity = None if (replay or smoke) else host.pin_to_one_cpu()
    tracer = Tracer() if trace else None
    probe = host.HostProbe()
    try:
        setups: List[Tuple[float, float]] = []
        if tracer is None and not smoke:
            # Set-up in fresh interpreters, each with the host's reading
            # around it.  A traced run reports no ``setup_s`` and skips them.
            setups = [_probe_setup(workload, seed, probe) for _ in range(SETUP_PROBES)]
        if tracer is not None:
            # One-time work (traces, keys, the base-OT session of the
            # warm-up window) is traced too; it feeds the run-scope metrics.
            tracer.install()
            tracer.trace_id = (-1, -1)
        setup_started = time.perf_counter()
        dataset, engine = build_setup(workload, seed)
        if smoke:
            setups = [(time.perf_counter() - setup_started, probe.read())]

        windows, warmup, reference = _select_windows(dataset, workload, seed)
        ctx = _Context(
            workload, dataset, engine, reference, tracer, probe, 1 if replay else len(windows)
        )

        def sharded_pass(index: int, windows: Sequence[int] = windows) -> Tally:
            return _replay_pass(ctx, windows, index, REPLAY_WORKERS)

        def serial_pass(index: int, windows: Sequence[int] = windows) -> Tally:
            if replay:
                return _replay_pass(ctx, windows, index, workers=1)
            return _live_pass(ctx, windows, index)

        # One unmeasured market window outside the list (a two-window replay
        # on the replay workload): imports, allocator growth and, on live
        # workloads, the process-wide base-OT correlation.
        main_pass = sharded_pass if replay else serial_pass
        warm_windows = sorted((warmup, windows[0])) if replay else [warmup]
        warm = main_pass(-1, warm_windows)
        if warm.failed:
            raise RuntimeError("warm-up failed:\n" + "\n".join(warm.failures))

        if tracer is None:
            phase = _measure(main_pass, seconds, ctx.segments_per_pass)
            if not phase.complete_passes:
                return _failed_result(workload, seed, trace, [phase], probe)
            return _end_to_end_result(workload, seed, phase, setups, probe)

        traced_run = _trace_phases(
            ctx, tracer, seconds, sharded_pass if replay else None, serial_pass, warm_windows
        )
        spans_path = OUT_DIR / f"{workload.name}-seed{seed}.spans.jsonl"
        spans_written = tracer.write_jsonl(spans_path, workload.name)
        if not traced_run.traced.complete_passes:
            result = _failed_result(workload, seed, trace, traced_run.phases, probe)
        else:
            result = _per_layer_result(workload, seed, traced_run, probe)
        result.detail["spans_file"] = str(spans_path.relative_to(ROOT))
        result.detail["spans"] = spans_written
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()
        host.restore_affinity(previous_affinity)


@dataclass
class _TracedRun:
    """The phases of a ``--trace 1`` run and what the tracer saw in them."""

    untraced: _Phase
    traced: _Phase
    #: the sharded phase of the replay workload (``None`` on live ones).
    sharded: Optional[_Phase]
    totals: SpanTotals
    setup_totals: SpanTotals
    counters: Dict[str, int]
    worker_rebuild_s: float

    @property
    def phases(self) -> List[_Phase]:
        return [p for p in (self.sharded, self.untraced, self.traced) if p is not None]


def _trace_phases(
    ctx: _Context,
    tracer: Tracer,
    seconds: float,
    sharded_pass: Optional[Callable[[int], Tally]],
    serial_pass: Callable[..., Tally],
    warm_windows: Sequence[int],
) -> _TracedRun:
    """Untraced reference passes alternating with the same passes under the tracer.

    The replay workload first spends a third of the time on sharded
    replays (their ``RunReport`` feeds the ``runtime.*`` metrics and must be
    bit-identical to the inline serial replay); worker-internal spans are
    not observable from here, so what is traced is the inline replay.
    """
    share = seconds / (2 if sharded_pass is None else 3)
    sharded, rebuild_s = None, 0.0
    if sharded_pass is not None:
        tracer.uninstall()
        sharded = _measure(sharded_pass, share, ctx.segments_per_pass)
        rebuild_s = _worker_rebuild_s(ctx.engine, ctx.dataset)
        tracer.install()
        # Only now may this process run a window itself: that establishes
        # the process-wide base-OT correlation, which forked workers would
        # inherit instead of paying for their own as they do in a
        # ``--trace 0`` run.
        warm = serial_pass(-1, warm_windows)
        if warm.failed:
            raise RuntimeError("inline warm-up failed:\n" + "\n".join(warm.failures))
    setup_totals = tracer.take_totals()
    tracer.uninstall()
    tracer.counters.clear()

    # Untraced and traced passes alternate, so both meet the same host.
    untraced, traced = _Phase(ctx.segments_per_pass), _Phase(ctx.segments_per_pass)
    pass_totals: List[SpanTotals] = []
    started = time.perf_counter()
    while True:
        _timed_pass(untraced, serial_pass)
        tracer.install()
        _timed_pass(traced, serial_pass)
        tracer.uninstall()
        pass_totals.append(tracer.take_totals())
        # One pass of span records is enough to read; later passes only
        # feed the totals.
        tracer.keep_spans = False
        if time.perf_counter() - started >= 2 * share:
            break
    if sharded is not None:
        _check_sharded_identical(sharded.tally, untraced.tally)
    # Every traced pass does the same work: as for the end-to-end segments,
    # scale each complete pass by what the host probe read around it and
    # take each span name's median pass.
    reference = ctx.probe.reference
    scaled = [
        (
            pass_totals[index],
            reference / statistics.mean(s.host for s in traced.pass_segments[index]),
        )
        for index in traced.complete_passes
    ]
    nothing = (0, 0.0, 0.0)
    totals = {
        name: (
            calls,
            statistics.median(t.get(name, nothing)[1] * k for t, k in scaled),
            statistics.median(t.get(name, nothing)[2] * k for t, k in scaled),
        )
        for name, (calls, _, _) in (scaled[0][0] if scaled else {}).items()
    }
    return _TracedRun(
        untraced, traced, sharded, totals, setup_totals, dict(tracer.counters), rebuild_s
    )


def _worker_rebuild_s(engine: PrivateTradingEngine, dataset: TraceDataset) -> float:
    """Parent-timed stand-in for what every worker repeats per replay.

    *Computed*, not observed in a worker: ``EngineSpec.build()`` plus key
    generation for every key slot the homes map to.
    """
    spec = EngineSpec.from_engine(engine)
    started = time.perf_counter()
    rebuilt = spec.build()
    for home in dataset.homes:
        rebuilt.keyring.keypair_for(home.profile.home_id)
    return time.perf_counter() - started


def _check_sharded_identical(sharded: Tally, inline: Tally) -> None:
    """The sharded replay must be bit-identical to the inline serial one."""
    if sharded.last_report is None or inline.last_report is None:
        return
    if not sharded.last_report.identical_to(inline.last_report, include_incidents=False):
        inline.fail("sharded replay report differs from the inline serial report")


def _host_detail(probe: host.HostProbe) -> Dict[str, object]:
    return {
        "host_reference_s": probe.reference,
        "host_slowdown_share": probe.slowdown_share,
        "host_readings": len(probe.readings),
    }


def _failed_result(
    workload: Workload, seed: int, trace: bool, phases: Sequence[_Phase], probe: host.HostProbe
) -> RunResult:
    """A run in which no pass completed: the gate misses and no metric."""
    return RunResult(
        workload=workload.name,
        seed=seed,
        trace=trace,
        attempted=sum(p.tally.attempted for p in phases),
        failed=sum(p.tally.failed for p in phases),
        metrics={},
        detail={
            "failures": [f for p in phases for f in p.tally.failures][:5],
            **_host_detail(probe),
        },
    )


def _end_to_end_result(
    workload: Workload,
    seed: int,
    phase: _Phase,
    setups: Sequence[Tuple[float, float]],
    probe: host.HostProbe,
) -> RunResult:
    tally = phase.tally
    reference = probe.reference
    segments = phase.typical_segments(reference)
    windows = sum(segment.windows for segment in segments)
    window_walls = phase.window_samples(reference)
    values = {
        "setup_s": statistics.median(wall * reference / reading for wall, reading in setups),
        "windows_per_s": windows / sum(segment.wall for segment in segments),
        "window_p50_s": statistics.median(window_walls),
        "window_p90_s": _percentile(window_walls, 0.9),
        "cpu_s_per_window": sum(segment.cpu for segment in segments) / windows,
        "bytes_per_window": tally.bytes / tally.attempted,
        "peak_rss_mb": host.peak_rss_mb(),
    }
    return RunResult(
        workload=workload.name,
        seed=seed,
        trace=False,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics={m.name: (values[m.name], m.unit) for m in END_TO_END},
        detail={
            "passes": phase.passes,
            "segments": len(segments),
            "window_samples": len(window_walls),
            "measured_wall_s": phase.wall,
            # As the stopwatch read them, before the host was taken out.
            "raw_windows_per_s": tally.attempted / phase.wall,
            "raw_setup_s": [wall for wall, _ in setups],
            "failures": tally.failures[:5],
            **_host_detail(probe),
        },
    )


def _per_layer_result(
    workload: Workload, seed: int, run: _TracedRun, probe: host.HostProbe
) -> RunResult:
    """Fold a traced run into the declared per-layer metrics.

    Everything is first brought to *one pass*: span times are already each
    name's median pass on the host at its best, counts summed over the
    traced passes are divided by their number (every pass counts the
    same).  Window-scope metrics are then divided by the windows of a pass.
    """
    tally, passes = run.traced.tally, run.traced.passes
    reference = probe.reference
    pass_windows = max(1, tally.attempted // passes)
    # Window wall of one pass, with and without the wrappers.
    traced_wall = sum(s.window_wall * s.windows for s in run.traced.typical_segments(reference))
    untraced_wall = sum(
        s.window_wall * s.windows for s in run.untraced.typical_segments(reference)
    )
    charged = tally.charged_online + tally.charged_offline + tally.charged_gc_offline
    per_pass: Dict[str, float] = {
        name: total / passes
        for name, total in {
            **run.counters,
            "crypto.accel.obfuscators_produced": tally.obfuscators,
            "crypto.accel.pool_fallbacks": tally.pool_fallbacks,
            "crypto.gc.fallbacks": tally.gc_fallbacks,
            "net.messages": tally.messages,
            "net.bytes": tally.bytes,
            "net.session.established": tally.sessions_established,
            "net.session.reused": tally.sessions_reused,
            "runtime.pipeline.reserved": tally.pipeline_reserved,
            "blockchain.blocks": tally.blocks,
            "blockchain.transactions": tally.transactions,
            "model.charged_online_s": tally.charged_online,
            "model.charged_offline_s": tally.charged_offline,
            "model.charged_gc_offline_s": tally.charged_gc_offline,
        }.items()
    }
    per_run: Dict[str, float] = {
        "runtime.worker_rebuild_s": run.worker_rebuild_s,
        "model.wall_over_charged": traced_wall * passes / charged if charged else 0.0,
        "host.calibration_s": reference,
        "host.slowdown_share": probe.slowdown_share,
        "trace.overhead_share": traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
    }
    if run.sharded is not None and run.sharded.tally.shard_runs:
        # One sharded replay is one pass (and one segment); as everywhere,
        # the median replay on the host at its best.
        runs = [
            (wall * reference / segments[0].host, [s * reference / segments[0].host for s in shards])
            # A replay that raised left neither a shard run nor a segment.
            for (wall, shards), segments in zip(
                run.sharded.tally.shard_runs, filter(None, run.sharded.pass_segments)
            )
        ]
        per_pass["runtime.run.total_s"] = statistics.median(wall for wall, _ in runs)
        per_pass["runtime.shard_wall_max_s"] = statistics.median(max(s) for _, s in runs)
        per_pass["runtime.dispatch_overhead_s"] = statistics.median(
            wall - max(shards) for wall, shards in runs
        )
        per_run["runtime.shard_imbalance"] = statistics.median(
            max(shards) / statistics.mean(shards) for _, shards in runs
        )

    column = {"calls": 0, "total_s": 1, "self_s": 2}
    nothing = (0, 0.0, 0.0)
    metrics: Dict[str, Tuple[float, str]] = {}
    for metric in PER_LAYER:
        span, _, suffix = metric.name.rpartition(".")
        if metric.name in per_run:
            value = per_run[metric.name]
        elif metric.name in per_pass:
            value = per_pass[metric.name]
        elif suffix in column:
            value = float(run.totals.get(span, nothing)[column[suffix]])
            if metric.scope == "run":
                # One-time work happens during set-up and warm-up.
                value += run.setup_totals.get(span, nothing)[column[suffix]]
        else:  # a declared count nothing produced on this workload
            value = 0.0
        if metric.scope == "window":
            value /= pass_windows
        metrics[metric.name] = (value, metric.unit)
    return RunResult(
        workload=workload.name,
        seed=seed,
        trace=True,
        attempted=sum(p.tally.attempted for p in run.phases),
        failed=sum(p.tally.failed for p in run.phases),
        metrics=metrics,
        detail={
            "traced_passes": passes,
            "traced_windows": tally.attempted,
            "untraced_passes": run.untraced.passes,
            "failures": [f for p in run.phases for f in p.tally.failures][:5],
            **_host_detail(probe),
        },
    )
