"""Execution plans: how a set of independent trading windows is sharded.

The PEM protocols are sequential *within* one trading window (chain
aggregation, comparison, distribution), but the windows of a day — and the
coalitions that form in them — are independent of each other: no protocol
state flows between windows, battery state is advanced deterministically
from the trace data, and (since the key ring derives key material from
stable identities) every worker reconstructs exactly the key and pool state
a serial run would have.  An :class:`ExecutionPlan` captures the resulting
freedom: it partitions the selected window indices into per-worker shards
that can execute concurrently and be merged back deterministically.

Two sharding strategies are provided:

* ``stride`` (default) — shard ``i`` takes windows ``selected[i::workers]``.
  Market activity is clustered around midday, so interleaving spreads the
  expensive market windows evenly across workers.
* ``contiguous`` — consecutive blocks.  Each worker advances battery state
  only up to its own last window, so total state-replay work is lower, at
  the price of potentially unbalanced crypto work.

Plans are pure data (hashable tuples), safe to pickle into worker
processes, and independent of the engine executing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

__all__ = ["ExecutionPlan"]

#: Recognized sharding strategies.
STRATEGIES = ("stride", "contiguous")


@dataclass(frozen=True)
class ExecutionPlan:
    """A deterministic partition of window indices into worker shards.

    Attributes:
        shards: one tuple of window indices per worker; shards are disjoint,
            each sorted ascending, and together cover exactly the planned
            windows.
        strategy: the sharding strategy that produced the plan (informational
            once the shards exist).
        pipeline: overlap each window's offline phase with the previous
            window's online phase inside every shard (see
            :class:`~repro.runtime.pipeline.WindowPipeline` and
            :func:`repro.net.costmodel.pipelined_day_cost`).  Requires
            ``session_scope="day"`` — the pre-staged material must survive
            the window boundary it is staged across — which the runner
            enforces against the executing engine's config.
    """

    shards: Tuple[Tuple[int, ...], ...]
    strategy: str = "stride"
    pipeline: bool = False

    def __post_init__(self) -> None:
        # Validated here, not only in for_windows: plans are also built
        # directly (tests, pickled worker payloads), and a typo'd strategy
        # or a bool masquerading as a window index must fail loudly then too.
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown sharding strategy {self.strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        seen: set = set()
        for shard in self.shards:
            if not shard:
                raise ValueError("execution plan contains an empty shard")
            if list(shard) != sorted(shard):
                raise ValueError(f"shard {shard} is not sorted ascending")
            for window in shard:
                if (
                    not isinstance(window, int)
                    or isinstance(window, bool)
                    or window < 0
                ):
                    raise ValueError(f"invalid window index {window!r}")
                if window in seen:
                    raise ValueError(f"window {window} appears in two shards")
                seen.add(window)

    @property
    def workers(self) -> int:
        """Number of shards (== worker processes the plan asks for)."""
        return len(self.shards)

    @property
    def windows(self) -> Tuple[int, ...]:
        """All planned windows, sorted ascending."""
        return tuple(sorted(w for shard in self.shards for w in shard))

    @property
    def window_count(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @classmethod
    def for_windows(
        cls,
        windows: Iterable[int],
        workers: int,
        strategy: str = "stride",
        pipeline: bool = False,
    ) -> "ExecutionPlan":
        """Plan the execution of ``windows`` across up to ``workers`` shards.

        Duplicate window indices are collapsed and the worker count is
        clamped to ``[1, len(windows)]`` (an empty selection yields a plan
        with zero shards).  ``pipeline`` marks the plan for pipelined
        offline/online execution within each shard.
        """
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown sharding strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        selected = sorted(set(windows))
        if not selected:
            return cls(shards=(), strategy=strategy, pipeline=pipeline)
        workers = max(1, min(int(workers), len(selected)))
        if strategy == "stride":
            shards = tuple(
                tuple(selected[i::workers]) for i in range(workers)
            )
        else:  # contiguous: spread the remainder so exactly `workers` shards exist
            base, remainder = divmod(len(selected), workers)
            shards_list = []
            start = 0
            for index in range(workers):
                size = base + (1 if index < remainder else 0)
                shards_list.append(tuple(selected[start : start + size]))
                start += size
            shards = tuple(shards_list)
        return cls(shards=shards, strategy=strategy, pipeline=pipeline)

    def describe(self) -> str:
        """One-line human-readable summary (used by examples/benchmarks)."""
        sizes = ", ".join(str(len(shard)) for shard in self.shards)
        pipelined = "; pipelined offline" if self.pipeline else ""
        return (
            f"{self.window_count} windows over {self.workers} worker(s) "
            f"[{self.strategy}; shard sizes: {sizes}{pipelined}]"
        )
