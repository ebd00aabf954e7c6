"""perfbench — a wall-clock benchmark of the private trading day.

Drives the real :class:`repro.core.protocols.PrivateTradingEngine` on four
workloads in a closed loop with one client, measures end-to-end metrics
with tracing off, and times calls into each layer's public functions from
wrappers installed by this package (no edit to ``src/``).  Everything the
benchmark declares lives in :mod:`perfbench.workloads`; ``BENCHMARK.json``
is generated from it.  See ``perfbench/README.md``.
"""
