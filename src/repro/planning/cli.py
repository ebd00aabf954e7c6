"""``repro plan`` — the deployment-planner command line.

Invoked as ``python -m repro.planning`` or ``python scripts/repro_plan.py``.
Given a fleet description it prints the cost-optimal deployment (the
exhaustive argmin of :func:`~repro.planning.plan`) with a human-readable
cost breakdown.  ``--execute K`` gates CI: it runs the emitted
``ProtocolConfig`` + ``ExecutionPlan`` end-to-end over ``K`` sampled
market windows next to the naive default deployment, and exits non-zero
unless at least one window ran and the two runs are economically
identical window by window (the planner may move clock charges, never
trades).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict
from typing import Optional

from ..analysis.experiments import experiment_planner_execution
from .fleet import FleetSpec, LinkProfile, resolve_link_profile
from .search import plan

__all__ = ["main", "build_spec"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro plan",
        description="Plan the cost-optimal deployment of a PEM trading day.",
    )
    parser.add_argument("--hosts", type=int, default=1, help="machines available")
    parser.add_argument(
        "--cores-per-host", type=int, default=4, help="worker slots per machine"
    )
    parser.add_argument("--agents", type=int, default=12, help="smart homes trading")
    parser.add_argument(
        "--windows", type=int, default=6, help="market windows per day"
    )
    parser.add_argument(
        "--profile", choices=("lan", "wan"), default="lan",
        help="link profile (lan: 0.5 ms / 100 MB/s; wan: 5 ms / 20 MB/s)",
    )
    parser.add_argument(
        "--latency-ms", type=float, default=None,
        help="override link latency in milliseconds",
    )
    parser.add_argument(
        "--bandwidth-mbps", type=float, default=None,
        help="override link bandwidth in MB/s",
    )
    parser.add_argument(
        "--key-size", type=int, default=1024, help="Paillier modulus size (bits)"
    )
    parser.add_argument(
        "--comparison-bits", type=int, default=64,
        help="bit width of the secure comparisons",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the plan as JSON instead of text"
    )
    parser.add_argument(
        "--execute", type=_positive_int, default=None, metavar="K",
        help="execute the planned config end-to-end over K >= 1 sampled "
             "market windows next to the naive default and certify economic "
             "identity (exit non-zero on divergence or when no window ran)",
    )
    parser.add_argument(
        "--execute-homes", type=int, default=8,
        help="homes to trade in the --execute run (kept small: real crypto)",
    )
    parser.add_argument(
        "--crypto-key-size", type=int, default=128,
        help="actual Paillier key for the --execute run (the cost model is "
             "still charged at --key-size)",
    )
    return parser


def build_spec(args: argparse.Namespace) -> FleetSpec:
    link = resolve_link_profile(args.profile)
    if args.latency_ms is not None or args.bandwidth_mbps is not None:
        link = LinkProfile(
            name="custom",
            latency_seconds=(
                args.latency_ms / 1e3
                if args.latency_ms is not None
                else link.latency_seconds
            ),
            bandwidth_bytes_per_second=(
                args.bandwidth_mbps * 1e6
                if args.bandwidth_mbps is not None
                else link.bandwidth_bytes_per_second
            ),
        )
    return FleetSpec(
        hosts=args.hosts,
        cores_per_host=args.cores_per_host,
        link=link,
        agent_count=args.agents,
        windows_per_day=args.windows,
        key_size=args.key_size,
        comparison_bits=args.comparison_bits,
    )


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    spec = build_spec(args)
    deployment = plan(spec)

    payload = deployment.to_dict()
    if not args.json:
        print(deployment.describe())

    ok = True
    if args.execute is not None:
        executed = asdict(
            experiment_planner_execution(
                spec,
                deployment.chosen.candidate,
                "cli",
                home_count=args.execute_homes,
                sample_count=args.execute,
                crypto_key_size=args.crypto_key_size,
            )
        )
        del executed["regime"]
        payload["executed"] = executed
        if not args.json:
            print(
                f"executed         : {executed['windows_executed']} windows, "
                f"economics identical: {executed['economics_identical']}, "
                f"measured day {executed['planned_day_seconds']:.2f} s vs naive "
                f"{executed['naive_day_seconds']:.2f} s "
                f"({executed['measured_speedup']:.2f}x)"
            )
        ok = executed["economics_identical"]

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
