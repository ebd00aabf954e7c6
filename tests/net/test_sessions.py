"""Unit and property tests for the SessionManager (repro.net.session).

The manager's one hard job is *accounting determinism*: whether a window
records a session establishment or a reuse must be a pure function of the
window (scope + anchor), never of which windows happened to run earlier in
the same process — that is what keeps sharded day-scope runs bit-identical
to serial ones.  The hypothesis property below simulates exactly that:
random window/pair schedules executed serially and under random shardings
must produce identical per-window event sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import SessionManager


def test_scope_validation():
    SessionManager("window")
    SessionManager("day")
    with pytest.raises(ValueError):
        SessionManager("fortnight")


@pytest.mark.parametrize("scope", ["window", "day"])
def test_lease_before_begin_window_raises(scope):
    """A lease outside any window must fail loudly, not account silently.

    The old behavior created an ``established_window=None`` record whose
    later leases counted as *reuses* no establishment ever paid for —
    breaking the per-window purity that keeps sharded day runs
    bit-identical to serial ones.
    """
    manager = SessionManager(scope)
    with pytest.raises(RuntimeError, match="begin_window"):
        manager.lease("alice", "bob")
    # Nothing was recorded: the first real window still establishes.
    manager.begin_window(2)
    lease = manager.lease("alice", "bob")
    assert lease.fresh and lease.counts_as_established


def test_window_scope_reestablishes_every_window():
    manager = SessionManager("window")
    for window in (3, 7, 9):
        manager.begin_window(window)
        lease = manager.lease("alice", "bob")
        assert lease.fresh
        assert lease.counts_as_established


def test_window_scope_same_window_second_lease_reuses():
    manager = SessionManager("window")
    manager.begin_window(1)
    assert manager.lease("alice", "bob").counts_as_established
    repeat = manager.lease("bob", "alice")  # pair keys are order-insensitive
    assert not repeat.fresh
    assert not repeat.counts_as_established
    assert repeat.record.uses == 2


def test_day_scope_establishes_once_then_reuses():
    manager = SessionManager("day")
    manager.begin_window(4)  # ad-hoc serial use: first window anchors the day
    assert manager.anchor_window == 4
    first = manager.lease("alice", "bob")
    assert first.fresh and first.counts_as_established
    for window in (5, 9):
        manager.begin_window(window)
        lease = manager.lease("alice", "bob")
        assert not lease.fresh
        assert not lease.counts_as_established


def test_day_scope_non_anchor_worker_adopts_silently():
    # A worker shard whose windows all come after the day's anchor: the
    # session is physically fresh here but the anchor (another shard)
    # already paid — the lease must count as a reuse.
    manager = SessionManager("day", anchor_window=0)
    manager.begin_window(5)
    lease = manager.lease("alice", "bob")
    assert lease.fresh
    assert not lease.counts_as_established


def test_day_scope_anchor_worker_accounts_establishment():
    manager = SessionManager("day", anchor_window=5)
    manager.begin_window(5)
    assert manager.lease("alice", "bob").counts_as_established
    manager.begin_window(8)
    assert not manager.lease("alice", "bob").counts_as_established


def _events(manager, windows, pairs_by_window):
    """Run a schedule through one manager; return per-window event tuples."""
    events = []
    for window in windows:
        manager.begin_window(window)
        for pair in pairs_by_window[window]:
            lease = manager.lease(*pair)
            events.append((window, pair, lease.counts_as_established))
    return events


@st.composite
def _schedules(draw):
    windows = sorted(
        draw(st.sets(st.integers(min_value=0, max_value=30), min_size=2, max_size=8))
    )
    pairs = [("a", "b"), ("b", "c"), ("grid", "a")]
    pairs_by_window = {
        w: [
            pair
            for pair in pairs
            if draw(st.booleans())
        ]
        for w in windows
    }
    workers = draw(st.integers(min_value=2, max_value=4))
    return windows, pairs_by_window, workers


@settings(max_examples=60, deadline=None)
@given(_schedules(), st.sampled_from(["window", "day"]))
def test_sharded_accounting_matches_serial(schedule, scope):
    """Per-window session events are identical under any stride sharding."""
    windows, pairs_by_window, workers = schedule
    anchor = windows[0]

    serial = _events(
        SessionManager(scope, anchor_window=anchor), windows, pairs_by_window
    )

    sharded = []
    for index in range(workers):
        shard = windows[index::workers]
        if not shard:
            continue
        sharded.extend(
            _events(
                SessionManager(scope, anchor_window=anchor), shard, pairs_by_window
            )
        )
    # Compare as per-window sets: merge order differs, content must not.
    assert sorted(serial) == sorted(sharded)


@settings(max_examples=30, deadline=None)
@given(_schedules())
def test_day_scope_establishes_at_most_once_per_pair(schedule):
    windows, pairs_by_window, _ = schedule
    manager = SessionManager("day", anchor_window=windows[0])
    events = _events(manager, windows, pairs_by_window)
    for pair in {pair for _, pair, _ in events}:
        established = [e for e in events if e[1] == pair and e[2]]
        assert len(established) <= 1
        # ... and the establishment, if accounted, happened at the anchor.
        for window, _, _ in established:
            assert window == windows[0]
