"""The columnar trade book against its per-pair oracle.

``clearing_oracle.py`` holds ``clear_market`` and Protocol 4's allocation as
they were before a window's trades became one ``TradeBook`` filled from an
outer product.  Whatever the market — general or extreme, one seller or one
buyer, pairs whose amount is not positive — the product clearing must equal
the oracle's in ids, order, every ``energy_kwh`` / ``payment`` bit, the
per-party sold / bought / export / import totals and ``traded_energy_kwh``,
and Protocol 4 must send the oracle's leg sequence.
"""

import pickle
import random
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clearing_oracle import oracle_clear_market, oracle_distribution
from helpers import book_from_trades
from repro.core import PAPER_PARAMETERS
from repro.core.agent import AgentWindowState
from repro.core.coalition import form_coalitions
from repro.core.market import MarketCase, MarketClearing, Trade, TradeBook, clear_market
from repro.core.protocols import ProtocolConfig, ProtocolContext, distribution
from repro.net import MessageKind, SimulatedNetwork

LEG_KINDS = (MessageKind.ENERGY_ROUTE, MessageKind.PAYMENT)


def _state(agent_id, window, net):
    return AgentWindowState(
        agent_id=agent_id,
        window=window,
        generation_kwh=max(net, 0.0),
        load_kwh=max(-net, 0.0),
        battery_kwh=0.0,
        battery_loss_coefficient=0.9,
        preference_k=150.0,
    )


def _coalitions(window, surpluses, demands):
    states = [_state(f"s{i}", window, net) for i, net in enumerate(surpluses)]
    states += [_state(f"b{i}", window, -net) for i, net in enumerate(demands)]
    return form_coalitions(window, states)


def _bits(clearing):
    """Everything a clearing holds, every float as its exact bits."""

    def totals(values):
        return [(key, type(value), value.hex()) for key, value in values.items()]

    return (
        clearing.window,
        clearing.case,
        float(clearing.clearing_price).hex(),
        [(t.seller_id, t.buyer_id, t.energy_kwh.hex(), t.payment.hex()) for t in clearing.trades],
        totals(clearing.seller_sold_kwh),
        totals(clearing.seller_grid_export_kwh),
        totals(clearing.buyer_bought_kwh),
        totals(clearing.buyer_grid_import_kwh),
        float(clearing.traded_energy_kwh).hex(),
    )


def _assert_matches_oracle(clearing, oracle, oracle_trades):
    assert clearing == oracle
    assert _bits(clearing) == _bits(oracle)
    assert list(clearing.trades) == oracle_trades
    assert all(type(trade) is Trade for trade in clearing.trades)
    assert float(clearing.traded_energy_kwh).hex() == float(
        sum(t.energy_kwh for t in oracle_trades)
    ).hex()


_amounts = st.lists(st.floats(1e-4, 20.0), min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(surpluses=_amounts, demands=_amounts, price=st.floats(90.0, 110.0))
@example(surpluses=[0.3], demands=[0.4, 0.6, 0.2], price=95.0)  # one seller, general
@example(surpluses=[0.6, 0.4, 0.1], demands=[0.5], price=90.0)  # one buyer, extreme
@example(surpluses=[0.7], demands=[0.7], price=90.0)  # one pair, supply == demand: extreme
def test_clear_market_equals_the_per_pair_oracle(surpluses, demands, price):
    coalitions = _coalitions(3, surpluses, demands)
    case = MarketCase.GENERAL if coalitions.is_general_market else MarketCase.EXTREME
    clearing = clear_market(coalitions, price, PAPER_PARAMETERS)
    oracle, oracle_trades = oracle_clear_market(coalitions, price, PAPER_PARAMETERS)
    assert clearing.case == case
    _assert_matches_oracle(clearing, oracle, oracle_trades)


def test_no_market_clearing_equals_the_oracle_and_holds_no_trades():
    coalitions = _coalitions(3, [], [0.5, 0.2])
    clearing = clear_market(coalitions, 100.0, PAPER_PARAMETERS)
    oracle, oracle_trades = oracle_clear_market(coalitions, 100.0, PAPER_PARAMETERS)
    assert oracle_trades == [] and len(clearing.trades) == 0 and not clearing.trades
    _assert_matches_oracle(clearing, oracle, oracle_trades)


def _distribute(window, surpluses, demands, price, ratios=None):
    """Protocol 4 over one window: its clearing, the oracle's inputs and the legs sent.

    ``ratios`` (requester index -> ratio) replaces the decrypted ratios, so
    a draw can hold ratios the ratio phase never yields, such as 0.
    """
    coalitions = _coalitions(window, surpluses, demands)
    network = SimulatedNetwork()
    seen = []
    network.add_message_hook(seen.append)
    context = ProtocolContext(
        coalitions=coalitions,
        network=network,
        config=ProtocolConfig(key_size=128, key_pool_size=2, seed=5),
        params=PAPER_PARAMETERS,
        rng=random.Random(5),
    )
    case = MarketCase.GENERAL if sum(surpluses) < sum(demands) else MarketCase.EXTREME
    ratio_phase = distribution._run_ratio_phase

    def drawn_ratio_phase(context, requesters, holder):
        ratio_phase(context, requesters, holder)
        return {r.agent_id: ratios[i] for i, r in enumerate(requesters)}

    try:
        with mock.patch.object(
            distribution, "_run_ratio_phase", ratio_phase if ratios is None else drawn_ratio_phase
        ):
            result = distribution.run_private_distribution(context, case, price)
        network.flush()
    finally:
        network.close()
    legs = [
        (m.kind, m.sender, m.recipient, struct.unpack(">d", m.payload)[0])
        for m in seen
        if m.kind in LEG_KINDS
    ]
    return result, coalitions, legs


def _assert_distribution_matches_oracle(result, coalitions, legs, price):
    oracle, oracle_trades, oracle_legs = oracle_distribution(
        result.clearing.case, coalitions.sellers, coalitions.buyers, result.ratios, price,
        coalitions.window,
    )  # fmt: skip
    _assert_matches_oracle(result.clearing, oracle, oracle_trades)
    assert [(kind, sender, recipient, amount.hex()) for kind, sender, recipient, amount in legs] == [
        (kind, sender, recipient, amount.hex()) for kind, sender, recipient, amount in oracle_legs
    ]


@settings(max_examples=30, deadline=None)
@given(
    window=st.integers(0, 100_000), surpluses=_amounts, demands=_amounts,
    price=st.floats(90.0, 110.0),
)  # fmt: skip
@example(window=7, surpluses=[0.3], demands=[0.4, 0.6, 0.2], price=95.0)  # one seller
@example(window=7, surpluses=[0.6, 0.4, 0.1], demands=[0.5], price=90.0)  # one buyer
def test_private_distribution_equals_the_per_pair_oracle(window, surpluses, demands, price):
    result, coalitions, legs = _distribute(window, surpluses, demands, price)
    _assert_distribution_matches_oracle(result, coalitions, legs, price)
    assert len(legs) == 2 * len(result.clearing.trades)


@settings(max_examples=30, deadline=None)
@given(
    surpluses=_amounts,
    demands=_amounts,
    price=st.floats(90.0, 110.0),
    data=st.data(),
)
def test_pairs_without_a_positive_amount_are_skipped_as_the_oracle_skips_them(
    surpluses, demands, price, data
):
    general = sum(surpluses) < sum(demands)
    requesters = len(demands) if general else len(surpluses)
    ratios = data.draw(
        st.lists(
            st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, -1e-3), st.floats(1e-3, 1.0)),
            min_size=requesters, max_size=requesters,
        )  # fmt: skip
    )
    result, coalitions, legs = _distribute(11, surpluses, demands, price, ratios)
    _assert_distribution_matches_oracle(result, coalitions, legs, price)
    pairs = len(surpluses) * len(demands)
    skipped = sum(1 for ratio in ratios if ratio <= 0)
    assert len(result.clearing.trades) == pairs - skipped * (pairs // requesters)


# -- the book as a sequence ------------------------------------------------------------


def _book():
    coalitions = _coalitions(3, [0.3, 0.1], [0.4, 0.6, 0.2])
    return clear_market(coalitions, 95.0, PAPER_PARAMETERS).trades


def test_the_book_indexes_iterates_and_reads_only():
    book = _book()
    trades = list(book)
    assert len(book) == len(trades) == 6
    assert [book[i] for i in range(len(book))] == trades and book[-1] == trades[-1]
    assert isinstance(book[0].energy_kwh, float) and book[0] == trades[0]
    assert type(book[1:4]) is TradeBook and list(book[1:4]) == trades[1:4]
    assert list(book[::-2]) == trades[::-2] and len(book[6:]) == 0
    for column in (book.seller_index, book.buyer_index, book.energy_kwh, book.payment):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0
    assert book != trades and not (book == trades)
    with pytest.raises(TypeError):
        hash(book)


def test_the_book_pickles_read_only_and_bit_equal():
    book = _book()
    copy = pickle.loads(pickle.dumps(book))
    assert type(copy) is TradeBook and copy == book and list(copy) == list(book)
    assert not copy.energy_kwh.flags.writeable and not copy.payment.flags.writeable


def test_one_ulp_in_one_column_breaks_book_equality():
    book = _book()
    trades = list(book)
    first = trades[0]
    bumped = [first._replace(payment=first.payment + 1e-9)] + trades[1:]
    assert book_from_trades(trades, book.seller_ids, book.buyer_ids) == book
    assert book_from_trades(bumped, book.seller_ids, book.buyer_ids) != book
    reordered = trades[1:] + trades[:1]
    assert book_from_trades(reordered, book.seller_ids, book.buyer_ids) != book
    empty = MarketClearing(window=3, case=MarketCase.NO_MARKET, clearing_price=120.0)
    assert empty.trades == TradeBook() and empty.traded_energy_kwh == 0
