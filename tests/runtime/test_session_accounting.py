"""End-to-end accounting tests for the persistent Session API.

Certifies, over the shared tiny trading day:

* ``session_scope="window"`` is bit-identical to the seed behavior (the
  default-config serial baseline) — the Session API is a pure refactor
  until day scope is opted into;
* ``session_scope="day"`` amortizes exactly the documented charges: the
  fixed 0.5 s coordination setup and the base-OT session are paid once at
  the day's anchor window, every other window reuses them, and the
  economic results are untouched;
* day scope is shard-invariant at workers 1/2/4 with sessions established
  exactly once per pair per day (``RunReport.identical_to``, which folds
  in the ``sessions_established``/``sessions_reused`` counters);
* a day whose anchor window forms no market still establishes (and
  charges) the day session there, deterministically across shardings.

All assertions are on the simulated clock (CI box has one core).
"""

import pytest

import helpers


#: The tiny market's protocol sessions: the coordination channel plus the
#: garbled-comparison OT-extension channel.
SESSIONS_PER_DAY = 2

#: Fixed per-window coordination setup (NetworkCostModel default).
SETUP_SECONDS = 0.5

#: Base-OT session cost at the tiny market's kappa (16 * 0.0015).
SESSION_OT_SECONDS = helpers.TEST_KAPPA * 0.0015


def _report(session_scope, workers=1, transport="local"):
    market = helpers.tiny_market(session_scope=session_scope, transport=transport)
    return market.engine().run_windows_report(
        market.dataset, market.windows, workers=workers
    )


@pytest.fixture(scope="module")
def window_report():
    return _report("window")


@pytest.fixture(scope="module")
def day_report():
    return _report("day")


def test_window_scope_is_bit_identical_to_seed_behavior(window_report):
    baseline = helpers.tiny_market_serial_report()  # default config
    assert baseline.identical_to(window_report)


def test_window_scope_counts_a_fresh_session_pair_per_window(window_report):
    windows = len(window_report.traces)
    assert window_report.stats.sessions_established == SESSIONS_PER_DAY * windows
    assert window_report.stats.sessions_reused == 0


def test_day_scope_establishes_once_per_pair_per_day(day_report):
    windows = len(day_report.traces)
    assert day_report.stats.sessions_established == SESSIONS_PER_DAY
    assert day_report.stats.sessions_reused == SESSIONS_PER_DAY * (windows - 1)


def test_day_scope_amortizes_setup_and_base_ot_charges(window_report, day_report):
    windows = len(day_report.traces)
    saved_online = (
        window_report.stats.simulated_seconds - day_report.stats.simulated_seconds
    )
    assert saved_online == pytest.approx((windows - 1) * SETUP_SECONDS)
    saved_gc_offline = (
        window_report.stats.gc_offline_seconds - day_report.stats.gc_offline_seconds
    )
    assert saved_gc_offline == pytest.approx((windows - 1) * SESSION_OT_SECONDS)
    # The anchor window still pays full price; every later window pays the
    # setup second less than its window-scoped twin.
    for index, (w, d) in enumerate(zip(window_report.traces, day_report.traces)):
        expected = 0.0 if index == 0 else SETUP_SECONDS
        assert w.simulated_runtime_seconds - d.simulated_runtime_seconds == pytest.approx(
            expected
        )


def test_day_scope_preserves_economics(window_report, day_report):
    assert len(window_report.traces) == len(day_report.traces)
    for w, d in zip(window_report.traces, day_report.traces):
        assert w.result.economically_equal(d.result)


def test_day_scope_first_comparison_alone_carries_session_bytes(
    window_report, day_report
):
    session_bytes = sum(helpers.small_comparison_pool(64).session_wire_bytes())
    for index, (w, d) in enumerate(zip(window_report.traces, day_report.traces)):
        saved = w.protocol_bandwidth_bytes - d.protocol_bandwidth_bytes
        assert saved == (0 if index == 0 else session_bytes)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_day_scope_is_shard_invariant(day_report, workers):
    sharded = _report("day", workers=workers)
    assert day_report.identical_to(sharded)


def test_day_scope_with_no_market_anchor_window():
    market = helpers.tiny_market(session_scope="day")
    # Window 0 (7 AM) forms no market in the tiny dataset; prepending it
    # makes the day's anchor a no-market window — the day session must
    # still come up (and be charged) there, not at the first market window.
    windows = (0,) + market.windows
    serial = market.engine().run_windows_report(market.dataset, windows, workers=1)
    anchor_trace = serial.traces[0]
    assert not anchor_trace.result.clearing  # genuinely no market
    assert anchor_trace.simulated_runtime_seconds == pytest.approx(SETUP_SECONDS)
    assert anchor_trace.gc_offline_seconds == pytest.approx(SESSION_OT_SECONDS)
    # The day session's base-OT wire traffic lands at the anchor too.
    session_bytes = sum(helpers.small_comparison_pool(64).session_wire_bytes())
    assert anchor_trace.bandwidth_bytes == session_bytes
    assert serial.stats.sessions_established == SESSIONS_PER_DAY
    for workers in (2, 3):
        sharded = market.engine().run_windows_report(
            market.dataset, windows, workers=workers
        )
        assert serial.identical_to(sharded)
