"""Paper-scale windows (200 homes) at toy key size, on both transports.

The paper's Fig. 5 / Table I run 200-300 homes; at that size Protocol 4's
seller x buyer phase is ~20 000 empty-payload messages submitted to the
network as **one run**.  One general-market and one extreme-market window
of a seeded 200-home day are driven through it here with 128-bit keys:

* the private result equals the plaintext engine's;
* ``TrafficStats`` equals a per-message reference — every message counted
  by a hook as it passes, and the settlement kinds recomputed from the
  clearing alone (two messages per ``Trade``, each ``len(json) + 64``);
* the ``local`` and ``socket`` reports are ``identical_to`` each other.
"""

import collections
import json

import pytest

from repro.core import PAPER_PARAMETERS, PlainTradingEngine
from repro.core.market import MarketCase
from repro.core.protocols import PrivateTradingEngine, ProtocolConfig
from repro.data import TraceConfig, generate_dataset

import helpers

HOME_COUNT = 200
#: A 100 x 100 general market and a 99-buyer extreme market of the seeded day.
GENERAL_WINDOW, EXTREME_WINDOW = 259, 356
WINDOWS = (GENERAL_WINDOW, EXTREME_WINDOW)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(TraceConfig(home_count=HOME_COUNT, window_count=720, seed=2020))


@pytest.fixture(scope="module")
def plain(dataset):
    day = PlainTradingEngine(PAPER_PARAMETERS).run_day(dataset, windows=list(WINDOWS))
    return {result.window: result for result in day.windows}


def _run(dataset, transport):
    """The two windows' report, plus every message a hook saw, per window."""
    engine = PrivateTradingEngine(
        PAPER_PARAMETERS,
        ProtocolConfig(
            key_size=helpers.TEST_KEY_SIZE,
            key_pool_size=4,
            seed=11,
            ot_extension_kappa=helpers.TEST_KAPPA,
            transport=transport,
        ),
    )
    seen = []
    build_network = engine.build_network

    def build_hooked_network():
        network = build_network()
        seen.append([])
        network.add_message_hook(seen[-1].append)
        return network

    engine.build_network = build_hooked_network
    report = engine.run_windows_report(dataset, WINDOWS, workers=1)
    return report, seen


@pytest.fixture(scope="module")
def runs(dataset):
    return {transport: _run(dataset, transport) for transport in ("local", "socket")}


def test_the_seeded_windows_are_the_markets_they_are_named_for(plain):
    assert plain[GENERAL_WINDOW].case is MarketCase.GENERAL
    assert plain[EXTREME_WINDOW].case is MarketCase.EXTREME
    assert len(plain[GENERAL_WINDOW].clearing.trades) == 10_000
    assert len(plain[EXTREME_WINDOW].clearing.trades) > 9_000


@pytest.mark.parametrize("transport", ("local", "socket"))
def test_private_result_equals_the_plaintext_engine(runs, plain, transport):
    report, _ = runs[transport]
    assert [trace.result.window for trace in report.traces] == list(WINDOWS)
    for trace in report.traces:
        reference = plain[trace.result.window]
        assert trace.result.case == reference.case
        assert trace.result.clearing_price == pytest.approx(reference.clearing_price, abs=1e-2)
        assert trace.result.grid_interaction_kwh == pytest.approx(
            reference.grid_interaction_kwh, rel=1e-3, abs=1e-4
        )
        clearing = trace.result.clearing
        assert len(clearing.trades) == len(reference.clearing.trades)
        ours = {(trade.seller_id, trade.buyer_id): trade for trade in clearing.trades}
        assert len(ours) == len(clearing.trades)
        for theirs in reference.clearing.trades:
            trade = ours[theirs.seller_id, theirs.buyer_id]
            assert trade.energy_kwh == pytest.approx(theirs.energy_kwh, rel=2e-3, abs=1e-8)
            assert trade.payment == pytest.approx(theirs.payment, rel=2e-3, abs=1e-6)


@pytest.mark.parametrize("transport", ("local", "socket"))
def test_traffic_stats_equal_a_per_message_reference(runs, transport):
    report, seen = runs[transport]
    stats = report.stats
    messages = [message for window in seen for message in window]
    assert len(seen) == len(WINDOWS)

    # Counted one by one as they passed the hooks.
    assert stats.total_messages == len(messages) > 38_000
    by_kind = collections.Counter()
    for message in messages:
        by_kind[message.kind.value] += len(message.payload) + 64 + (
            len(json.dumps(message.metadata, sort_keys=True)) if message.metadata else 0
        )
    wire_kinds = {kind: size for kind, size in stats.bytes_by_kind.items() if kind in by_kind}
    assert wire_kinds == dict(by_kind)
    traffic = stats.per_party.values()
    assert sum(t.messages_sent for t in traffic) == stats.total_messages
    assert sum(t.messages_received for t in traffic) == stats.total_messages
    assert sum(stats.bytes_by_kind.values()) == stats.total_bytes

    # The settlement kinds again, from the clearing alone.
    trades = [
        (trace.result.window, trade)
        for trace in report.traces
        for trade in trace.result.clearing.trades
    ]
    kinds = collections.Counter(message.kind.value for message in messages)
    assert kinds["energy_route"] == kinds["payment"] == len(trades) > 19_000
    assert stats.bytes_by_kind["energy_route"] == sum(
        len(json.dumps({"window": window, "kwh": round(trade.energy_kwh, 9)}, sort_keys=True)) + 64
        for window, trade in trades
    )
    assert stats.bytes_by_kind["payment"] == sum(
        len(json.dumps({"window": window, "amount": round(trade.payment, 6)}, sort_keys=True)) + 64
        for window, trade in trades
    )
    # In trade order, ids ascending: route then payment for each trade.
    settlement = [m for m in seen[0] if m.kind.value in ("energy_route", "payment")]
    first_window_trades = report.traces[0].result.clearing.trades
    assert [(m.sender, m.recipient) for m in settlement[:6]] == [
        pair
        for trade in first_window_trades[:3]
        for pair in ((trade.seller_id, trade.buyer_id), (trade.buyer_id, trade.seller_id))
    ]
    ids = [m.message_id for m in settlement]
    assert ids == list(range(ids[0], ids[0] + len(ids)))


def test_local_and_socket_reports_are_identical(runs):
    local, socket = runs["local"][0], runs["socket"][0]
    assert local.identical_to(socket) and socket.identical_to(local)
    # Same messages in the same order (ciphertext bytes are CSPRNG-fresh per run).
    for ours, theirs in zip(runs["local"][1], runs["socket"][1]):
        assert [(m.sender, m.recipient, m.kind, len(m.payload), m.metadata) for m in ours] == [
            (m.sender, m.recipient, m.kind, len(m.payload), m.metadata) for m in theirs
        ]
