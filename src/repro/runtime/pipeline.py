"""Window pipelining: stage window W+1's offline phase one slot ahead.

Under day-scoped sessions (:mod:`repro.net.session`) the offline material a
window consumes — randomizer-pool obfuscators, prepared garbled comparisons
with their OT-extension batches — stays valid across window boundaries.
That turns the inter-window idle time of the paper's always-on deployment
into a pipeline: window W+1's offline material is computed in the slot
where window W runs, so W+1's ``warm_pools`` pops pre-staged values instead
of exponentiating and garbling inline.

:class:`WindowPipeline` is that stage.  Two properties are load-bearing:

* **It is window-synchronous.**  ``advance(W)`` is called once when window
  W begins: it *claims* W's pre-staged material into the pools'
  reservoirs, then stages the shard's next window on the calling thread.
  One window of lookahead, exactly the ``max(online_W, offline_W+1)`` slot
  the cost model charges (:func:`repro.net.costmodel.pipelined_day_cost`).
* **Material is tagged to its window.**  Staged values live in per-window
  *reservations* (see ``RandomizerPool.reserve`` /
  ``ComparisonPool.reserve``) rather than the shared reservoir.  W+1 is
  staged before W executes, so a supervisor retry of window W re-runs W's
  warm-ups against whatever the reservoir holds — it can never consume, or
  double-charge, material staged for window W+1, because that material is
  only released when W+1 itself advances.

Accounting is untouched, as for every reservoir mechanism in this repo:
``produced``/``consumed``/``fallback_count``/``sessions_started`` are a
pure function of the protocol's warm/take sequence, so pipelined runs are
bit-identical to unpipelined ones (``RunReport.identical_to``), and the
staged values come from the system CSPRNG, so staging never advances a
pool's protocol ``rng``.  The saving this models is on the *simulated*
clock, where the cost model charges each slot the max of the two phases
instead of their sum.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..crypto.gc_pool import ComparisonPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..core.protocols.context import KeyRing

__all__ = ["WindowPipeline"]


class WindowPipeline:
    """Per-shard offline/online pipeline stage (wall-clock only).

    Args:
        keyring: the key ring whose pools to pre-stage.  Pools the ring
            creates after a stage ran are simply staged one window later —
            staging is an optimization, never a correctness requirement
            (a missing reservation falls back to the normal inline warm).
        windows: the shard's window indices in execution order.
        randomizer_target: obfuscators to pre-stage per randomizer pool
            per window.
        comparison_target: prepared instances per comparison pool per
            window (a window consumes one; retries may want a second).

    Usage (what ``PrivateTradingEngine.execute_shard`` does)::

        pipeline = WindowPipeline(engine.keyring, shard_windows)
        for window in shard_windows:
            pipeline.advance(window)   # claim W's material, stage W+1's
            ... run window W ...
    """

    def __init__(
        self,
        keyring: "KeyRing",
        windows: Iterable[int],
        randomizer_target: int = 16,
        comparison_target: int = 2,
    ) -> None:
        self._keyring = keyring
        self._windows = tuple(sorted(set(windows)))
        self._successor = {
            window: self._windows[index + 1]
            for index, window in enumerate(self._windows[:-1])
        }
        self._randomizer_target = max(0, randomizer_target)
        self._comparison_target = max(0, comparison_target)
        #: total values pre-staged across all pools (wall-clock telemetry).
        self.total_reserved = 0
        #: total values claimed by advancing windows.
        self.total_claimed = 0

    def advance(self, window: int) -> int:
        """Enter ``window``'s pipeline slot.

        Claims the material pre-staged for ``window`` into the pools'
        reservoirs, then stages the shard's next window.  Called exactly
        once per window, *before* its (possibly supervised and retried)
        execution.  Returns the number of values claimed.
        """
        claimed = self._keyring.claim_reservations(window)
        self.total_claimed += claimed
        successor = self._successor.get(window)
        if successor is not None:
            self._stage(successor)
        return claimed

    def _stage(self, window: int) -> None:
        """Pre-stage ``window``'s offline material into its reservations."""
        for pool in self._keyring.offline_pools:
            target = (
                self._comparison_target
                if isinstance(pool, ComparisonPool)
                else self._randomizer_target
            )
            deficit = (
                target - pool.reservoir_available - pool.reservation_available(window)
            )
            if deficit > 0:
                self.total_reserved += pool.reserve(window, deficit)
