#!/usr/bin/env python3
"""Shard a private trading day across worker processes (runtime subsystem).

Samples market windows from a synthetic trading day, runs the full
cryptographic protocol stack over them twice — serially and sharded across
``--workers`` processes via :class:`repro.runtime.ParallelRunner` — then
verifies the sharded run reproduced the serial results bit-for-bit and
prints the day-runtime speedup on both clocks (the simulated cost-model
clock is the paper's Fig. 5 metric; host wall-clock is bounded by the
machine's real core count).

The deployment knobs of the Session API ride along: ``--session-scope day``
establishes the protocol sessions once per day (amortizing the fixed 0.5 s
setup and the base-OT session across windows), and ``--transport socket``
routes every protocol message over real loopback TCP *and* fans the shards
out to the workers over sockets — both bit-identical or outcome-identical
to the defaults.

``--pipeline`` (day scope only) runs the sharded day behind a
:class:`repro.runtime.WindowPipeline` stage: window W+1's offline material
(randomizer obfuscators, garbled comparisons, OT batches) is pre-staged
when window W begins, each pipeline slot costing
``max(online_W, offline_W+1)`` on the simulated clock instead of the sum.
The serial run stays unpipelined, so the bit-identity check certifies that
pipelining moves wall-clock work without touching results or accounting;
the count of pre-staged values is printed and is the same on every run.

``--chaos-seed N`` arms the chaos engine on the sharded run: a seeded
deterministic :class:`repro.chaos.FaultPlan` injects frame drops /
reorders / duplicates / corruption (and, over the socket fan-out with
multiple workers, SIGKILLs a shard worker mid-run); the
:class:`repro.runtime.WindowSupervisor` classifies and retries every
fault, and the example exits non-zero unless the recovered run is
bit-identical to the clean serial run with every incident recovered —
the detect-and-recover certificate of ``docs/CHAOS.md``.

Run with:  python examples/parallel_private_day.py [--homes N] [--windows K]
                                                   [--workers W]
                                                   [--strategy stride|contiguous]
                                                   [--session-scope window|day]
                                                   [--transport local|socket]
                                                   [--pipeline]
                                                   [--chaos-seed N]
"""

import argparse
import os

from repro.analysis import sample_market_windows
from repro.chaos import FaultPlan
from repro.core import PAPER_PARAMETERS
from repro.core.protocols import PrivateTradingEngine, ProtocolConfig
from repro.data import TraceConfig, generate_dataset
from repro.runtime import ExecutionPlan


def build_engine(
    session_scope: str = "window",
    transport: str = "local",
    fault_plan: FaultPlan = None,
) -> PrivateTradingEngine:
    return PrivateTradingEngine(
        params=PAPER_PARAMETERS,
        config=ProtocolConfig(
            key_size=128,
            key_pool_size=4,
            seed=7,
            session_scope=session_scope,
            transport=transport,
            fault_plan=fault_plan,
        ),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--homes", type=int, default=16, help="number of smart homes")
    parser.add_argument("--windows", type=int, default=8, help="market windows to sample")
    parser.add_argument("--workers", type=int, default=4, help="worker processes")
    parser.add_argument(
        "--strategy", choices=("stride", "contiguous"), default="stride",
        help="window sharding strategy",
    )
    parser.add_argument(
        "--session-scope", choices=("window", "day"), default="window",
        help="protocol session lifetime (day amortizes the fixed setup)",
    )
    parser.add_argument(
        "--transport", choices=("local", "socket"), default="local",
        help="message fabric + shard fan-out (socket = real loopback TCP)",
    )
    parser.add_argument(
        "--pipeline", action="store_true",
        help="overlap each window's offline phase with the previous window's "
             "online phase (requires --session-scope day)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=None, metavar="N",
        help="inject a seeded deterministic fault plan into the sharded run "
             "and certify detect-and-recover (see docs/CHAOS.md)",
    )
    args = parser.parse_args()

    if args.pipeline and args.session_scope != "day":
        parser.error("--pipeline requires --session-scope day (pre-staged "
                     "offline material must survive window boundaries)")

    fault_plan = None
    if args.chaos_seed is not None:
        kill_shards = (
            (1,) if args.transport == "socket" and args.workers > 1 else ()
        )
        fault_plan = FaultPlan(
            seed=args.chaos_seed,
            drop_rate=0.004,
            reorder_rate=0.004,
            duplicate_rate=0.004,
            corrupt_rate=0.004,
            max_attempts=4,
            kill_shards=kill_shards,
        )

    print(f"Generating synthetic traces for {args.homes} homes ...")
    dataset = generate_dataset(
        TraceConfig(home_count=args.homes, window_count=720, seed=2020)
    )
    windows = sample_market_windows(dataset, args.homes, args.windows)
    plan = ExecutionPlan.for_windows(windows, args.workers, strategy=args.strategy)
    print(f"Execution plan: {plan.describe()}")

    print(
        f"Serial run (sessions: {args.session_scope}, transport: {args.transport}) ..."
    )
    serial = build_engine(args.session_scope, args.transport).run_windows_report(
        dataset, windows, workers=1
    )
    chaos_note = f", chaos seed {args.chaos_seed}" if fault_plan is not None else ""
    pipeline_note = ", pipelined offline" if args.pipeline else ""
    print(f"Sharded run ({plan.workers} workers{pipeline_note}{chaos_note}) ...")
    parallel = build_engine(args.session_scope, args.transport, fault_plan).run_windows_report(
        dataset,
        windows,
        workers=args.workers,
        shard_strategy=args.strategy,
        pipeline=args.pipeline,
    )

    identical = serial.identical_to(parallel, include_incidents=False)

    print()
    print("=== Sharded vs. serial ===")
    print(f"windows executed                  : {len(parallel.traces)}")
    print(f"results bit-identical             : {identical}")
    print(f"sessions established / reused     : {parallel.stats.sessions_established}"
          f" / {parallel.stats.sessions_reused}")
    print(f"pool fallbacks (drained warm-ups) : {parallel.stats.pool_fallbacks}")
    print(f"simulated day runtime, serial     : {parallel.serial_simulated_seconds:.2f} s")
    print(f"simulated day runtime, sharded    : {parallel.parallel_simulated_seconds:.2f} s")
    print(f"simulated day speedup             : {parallel.simulated_speedup:.2f}x")
    print(f"host wall-clock serial / sharded  : {serial.wall_seconds:.2f} s / "
          f"{parallel.wall_seconds:.2f} s ({os.cpu_count()} core(s) available)")
    if args.pipeline:
        print(f"unpipelined day (offline+online)  : "
              f"{parallel.unpipelined_simulated_seconds:.2f} s")
        print(f"pipelined day (overlapped)        : "
              f"{parallel.pipelined_simulated_seconds:.2f} s")
        print(f"pipeline speedup / offline hidden : {parallel.pipeline_speedup:.2f}x / "
              f"{parallel.pipeline_hidden_seconds:.2f} s")
        print(f"offline values pre-staged         : {parallel.pipeline_reserved}")
    if fault_plan is not None:
        recovered = all(i.recovered for i in parallel.incidents)
        print(f"chaos incidents (all recovered)   : {len(parallel.incidents)}"
              f" ({recovered})")
        for incident in parallel.incidents:
            where = "day" if incident.window is None else f"window {incident.window}"
            print(f"  - {where}: {incident.fault} -> {incident.classification} "
                  f"({incident.action}, attempt {incident.attempt})")
        if not recovered:
            raise SystemExit("chaos run finished with unrecovered incidents")
    if not identical:
        raise SystemExit("sharded run diverged from the serial run")


if __name__ == "__main__":
    main()
