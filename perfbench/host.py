"""What the benchmark reads from, and asks of, the host it runs on."""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time
from typing import List, Optional, Set

__all__ = ["pin_to_one_cpu", "restore_affinity", "HostProbe", "cpu_seconds", "peak_rss_mb"]


def pin_to_one_cpu() -> Optional[Set[int]]:
    """Pin this process (and what it spawns) to its first allowed CPU.

    Load-bearing for the single-process workloads: unpinned,
    ``live_socket_128`` is bimodal on identical code and inputs — the
    socket transport's sender and receiver threads ping-pong one message at
    a time, and every hand-over pays a cross-CPU wake-up whenever the
    scheduler spreads them.  Returns the previous affinity (``None`` where
    the platform has no affinity call).
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    previous = set(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(previous)})
    return previous


def restore_affinity(previous: Optional[Set[int]]) -> None:
    if previous is not None:
        os.sched_setaffinity(0, previous)


_PROBE_MODULUS = (1 << 512) - 569
_PROBE_BLOCK = bytes(range(64))


class HostProbe:
    """A fixed ~2 ms kernel read between segments: how fast is the host *now*.

    The box is a shared VM.  On identical code its speed moves by up to 2x
    under the neighbours' load, for milliseconds or for minutes (measured:
    a 1.24 s pass of ``live_gc_128`` stretches to 2.2 s; CPU time inflates
    with the wall, so it is the CPU getting slower, not the process
    waiting; steal time and our own second vCPU stay idle throughout).  The
    probe does what the workloads do — interpreter dispatch, dict and list
    churn, SHA-256, a big-int ``pow`` — so it slows down with them, and it
    never changes, so its reading is a ruler: a segment timed while the
    probe read 1.5x its least reading ran on a host 1.5x slower than the
    host can be.  The driver scales every segment by ``reference /
    reading`` (see ``driver._Phase.typical_segments``).

    Checked on ten-second runs of identical code in a bad hour: the spread
    (quartile distance / median) of the mean window time was 0.21, of the
    per-window minimum over repeats 0.23, of the compensated median 0.04
    (``live_gc_128``; 0.13, 0.23 and 0.065 on ``live_socket_128``).
    """

    def __init__(self) -> None:
        self.readings: List[float] = []

    def read(self) -> float:
        """Time the kernel once, remember and return the reading."""
        started = time.perf_counter()
        table: dict = {}
        sha256 = hashlib.sha256
        for index in range(1500):
            table[index & 63] = [index, sha256(_PROBE_BLOCK).digest()]
        value = 3
        for _ in range(2):
            value = pow(value, _PROBE_MODULUS - 2, _PROBE_MODULUS) | 3
        reading = time.perf_counter() - started
        self.readings.append(reading)
        return reading

    def read_median(self, count: int) -> float:
        """The median of ``count`` readings in a row (around a long segment)."""
        return statistics.median(self.read() for _ in range(count))

    @property
    def reference(self) -> float:
        """The least reading so far: the probe on the host at its best.

        A run takes hundreds of 2 ms readings, so even in a bad hour some of
        them meet a quiet moment.
        """
        return min(self.readings)

    @property
    def slowdown_share(self) -> float:
        """How much slower than its best the host typically was (0 = never)."""
        return statistics.median(self.readings) / self.reference - 1.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
