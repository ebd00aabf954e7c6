"""Persistent protocol sessions and the scope that amortizes their setup.

Every trading window of the seed implementation re-paid two fixed costs:
the per-window coordination overhead (``CostModel.window_setup_cost`` —
container wake-up, role lookup, secure-channel establishment, 0.5 s on the
online clock) and a fresh OT-extension base-OT session for the garbled
comparison (``kappa`` public-key transfers on the offline clock, plus their
wire bytes).  The paper's prototype keeps its containers and TCP
connections alive for the whole trading day, so neither cost is inherently
per-window — they are *session* costs, and this module gives sessions an
explicit owner.

A :class:`SessionManager` tracks long-lived protocol sessions keyed by a
party pair (order-insensitive).  Its behavior is governed by
``ProtocolConfig.session_scope``:

* ``"window"`` (default) — sessions die at every window boundary, exactly
  the seed behavior: each market window establishes fresh sessions and
  pays both fixed costs again.
* ``"day"`` — sessions are established **once per day**, at the day's
  *anchor window* (the first selected window of the run), and every later
  window reuses them.  The setup second and the base-OT session are
  charged at establishment only.

Shard invariance
----------------

Sharded runs (:mod:`repro.runtime`) execute disjoint window subsets in
separate worker processes, each with its own ``SessionManager``.  To keep
per-window accounting a pure function of the window — the invariant every
pool in this repo already obeys — establishment is *accounted* only at the
anchor window.  A worker whose shard does not contain the anchor still
creates its sessions physically (state must exist somewhere), but its
:class:`SessionLease` reports ``counts_as_established == False``: the
session was established earlier in the day by another shard, so that
window records a *reuse*, exactly as the serial run does for the same
window.  ``TrafficStats.sessions_established`` / ``sessions_reused`` are
therefore bit-identical across worker counts, and both are folded into
``RunReport.identical_to``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["SESSION_SCOPES", "SessionRecord", "SessionLease", "SessionManager"]

#: Recognized values of ``ProtocolConfig.session_scope``.
SESSION_SCOPES = ("window", "day")


def _pair_key(a: str, b: str) -> Tuple[str, str]:
    """Order-insensitive session key for the pair ``(a, b)``."""
    return (a, b) if a <= b else (b, a)


@dataclass
class SessionRecord:
    """One long-lived protocol session between a party pair.

    Attributes:
        key: the (order-normalized) party pair.
        established_window: window index at which the session came up in
            this process.
        accounted: whether this process charged the establishment (False
            in a worker that adopted a session the day's anchor window —
            running in another shard — already paid for).
        uses: number of leases served, the establishment included.
    """

    key: Tuple[str, str]
    established_window: Optional[int]
    accounted: bool
    uses: int = 0


@dataclass(frozen=True)
class SessionLease:
    """The outcome of asking the manager for a session.

    Attributes:
        record: the underlying session.
        fresh: the session was physically created by this lease.
        counts_as_established: this lease must be *accounted* as an
            establishment — charge the fixed setup costs and bump
            ``sessions_established``.  Everything else records a reuse.
    """

    record: SessionRecord
    fresh: bool
    counts_as_established: bool


class SessionManager:
    """Owns the protocol sessions of one engine (or one worker shard).

    Args:
        scope: ``"window"`` (sessions die at window boundaries) or
            ``"day"`` (sessions persist; establishment accounted at the
            anchor window).
        anchor_window: the day's establishing window.  ``None`` means
            "the first window this manager sees" — correct for serial
            runs; sharded runs must pass the day's global first window so
            every worker agrees on who pays for establishment.
    """

    def __init__(self, scope: str = "window", anchor_window: Optional[int] = None) -> None:
        if scope not in SESSION_SCOPES:
            raise ValueError(
                f"unknown session scope {scope!r}; expected one of {SESSION_SCOPES}"
            )
        self.scope = scope
        self.anchor_window = anchor_window
        self._sessions: Dict[Tuple[str, str], SessionRecord] = {}
        self._window: Optional[int] = None

    # -- window lifecycle --------------------------------------------------------

    def begin_window(self, window: int) -> None:
        """Enter a window; under window scope this tears sessions down."""
        self._window = window
        if self.scope == "window":
            self._sessions.clear()
        elif self.anchor_window is None:
            # Serial ad-hoc use: the first window seen anchors the day.
            self.anchor_window = window

    @property
    def at_anchor(self) -> bool:
        """Whether the current window is the day's establishing window."""
        return self.anchor_window is None or self._window == self.anchor_window

    # -- leasing -----------------------------------------------------------------

    def lease(self, a: str, b: str) -> SessionLease:
        """Lease the session between parties ``a`` and ``b``.

        Window scope: every window's first lease of a pair establishes (and
        is accounted).  Day scope: the pair's single session is accounted
        at the anchor window; leases anywhere else — including the
        physical creation inside a non-anchor worker shard — count as
        reuses.

        Raises:
            RuntimeError: when no :meth:`begin_window` call preceded the
                lease.  A pre-window lease has no window to account to:
                under day scope with an explicit ``anchor_window`` it would
                silently record a *reuse* that no anchor ever paid for,
                corrupting ``sessions_established``.
        """
        if self._window is None:
            raise RuntimeError(
                "SessionManager.lease() before begin_window(): a lease "
                "outside any window cannot be anchor-accounted (it would "
                "record a reuse no establishment ever paid for); call "
                "begin_window(window) first"
            )
        key = _pair_key(a, b)
        record = self._sessions.get(key)
        if record is not None:
            record.uses += 1
            return SessionLease(record=record, fresh=False, counts_as_established=False)
        accounted = self.scope == "window" or self.at_anchor
        record = SessionRecord(
            key=key, established_window=self._window, accounted=accounted, uses=1
        )
        self._sessions[key] = record
        return SessionLease(record=record, fresh=True, counts_as_established=accounted)
