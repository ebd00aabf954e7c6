"""Parallel window-execution subsystem for the PEM reproduction.

Trading windows (and the coalitions inside a day) are independent, so they
can be sharded across worker processes, and a day-scoped shard can stage
each window's offline material one window ahead.  This package provides:

* :class:`ExecutionPlan` — deterministic sharding of window indices,
* :class:`ParallelRunner` / :class:`RunReport` — shard execution, worker
  management and bit-stable result/stats merging,
* :class:`WindowPipeline` — window-synchronous offline/online pipelining
  (stage window W+1's offline material when window W begins),
* :class:`EngineSpec` — a pickleable engine recipe for worker processes,
* :class:`WindowSupervisor` / :class:`Incident` — chaos-aware failure
  classification and certified detect-and-recover (see ``docs/CHAOS.md``).

See ``docs/ARCHITECTURE.md`` for the sharding/merge model and a worked
``ExecutionPlan`` example.
"""

from .pipeline import WindowPipeline
from .plan import ExecutionPlan
from .runner import EngineSpec, ParallelRunner, RunReport
from .supervisor import Incident, WindowAbortError, WindowSupervisor

__all__ = [
    "ExecutionPlan",
    "WindowPipeline",
    "EngineSpec",
    "ParallelRunner",
    "RunReport",
    "Incident",
    "WindowAbortError",
    "WindowSupervisor",
]
