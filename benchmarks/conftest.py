"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artifacts
(Figures 4-6, Table I) and prints it as a text table/series so the captured
output can be compared with the paper.  Heavy experiments run exactly once
inside ``benchmark.pedantic`` (the interesting quantity is the experiment's
own measured/simulated metric, not the wall-clock of the harness).

The ``REPRO_BENCH_SCALE`` environment variable selects the experiment size:

* ``full``  — the paper's configuration where tractable (slow),
* ``default`` — reduced agent counts / sampled windows (a few minutes),
* ``quick`` — smoke-test sizes (tens of seconds).
"""

from __future__ import annotations

import os

SCALE = os.environ.get("REPRO_BENCH_SCALE", "default").lower()


def scaled(quick, default, full):
    """Pick a configuration value according to REPRO_BENCH_SCALE."""
    if SCALE == "quick":
        return quick
    if SCALE == "full":
        return full
    return default


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
