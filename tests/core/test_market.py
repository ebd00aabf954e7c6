"""Tests for market clearing: allocation, payments and conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import book_from_trades, pair_energies
from repro.core import PAPER_PARAMETERS
from repro.core.agent import AgentWindowState
from repro.core.coalition import form_coalitions
from repro.core.market import MarketCase, clear_market


def state(agent_id: str, net: float) -> AgentWindowState:
    return AgentWindowState(
        agent_id=agent_id,
        window=0,
        generation_kwh=max(net, 0.0),
        load_kwh=max(-net, 0.0),
        battery_kwh=0.0,
        battery_loss_coefficient=0.9,
        preference_k=100.0,
    )


def test_general_market_allocation_matches_eq_demand_share():
    coalitions = form_coalitions(
        0, [state("s1", 0.3), state("s2", 0.1), state("b1", -0.4), state("b2", -0.6)]
    )
    clearing = clear_market(coalitions, 100.0, PAPER_PARAMETERS)
    assert clearing.case == MarketCase.GENERAL
    # e_ij = sn_i * |sn_j| / E_b.
    pairs = pair_energies(clearing.trades)
    assert pairs["s1", "b1"] == pytest.approx(0.3 * 0.4 / 1.0)
    assert pairs["s2", "b2"] == pytest.approx(0.1 * 0.6 / 1.0)
    # All supply is sold; buyers' residuals come from the grid.
    assert clearing.seller_sold_kwh["s1"] == pytest.approx(0.3)
    assert clearing.seller_grid_export_kwh["s1"] == 0.0
    assert clearing.buyer_bought_kwh["b1"] == pytest.approx(0.4 / 1.0 * 0.4, abs=1e-9)
    assert clearing.buyer_bought_kwh["b1"] + clearing.buyer_grid_import_kwh["b1"] == pytest.approx(0.4)


def test_general_market_payments():
    coalitions = form_coalitions(0, [state("s1", 0.2), state("b1", -0.5)])
    clearing = clear_market(coalitions, 95.0, PAPER_PARAMETERS)
    assert sum(clearing.trades.payment) == pytest.approx(95.0 * 0.2)
    for trade in clearing.trades:
        assert trade.payment == pytest.approx(95.0 * trade.energy_kwh)


def test_extreme_market_allocation_matches_supply_share():
    coalitions = form_coalitions(
        0, [state("s1", 0.6), state("s2", 0.4), state("b1", -0.5)]
    )
    clearing = clear_market(coalitions, PAPER_PARAMETERS.price_lower_bound, PAPER_PARAMETERS)
    assert clearing.case == MarketCase.EXTREME
    # e_ij = |sn_j| * sn_i / E_s.
    pairs = pair_energies(clearing.trades)
    assert pairs["s1", "b1"] == pytest.approx(0.5 * 0.6 / 1.0)
    assert pairs["s2", "b1"] == pytest.approx(0.5 * 0.4 / 1.0)
    # Buyers fully served, sellers export the residual to the grid.
    assert clearing.buyer_grid_import_kwh["b1"] == 0.0
    assert clearing.seller_grid_export_kwh["s1"] == pytest.approx(0.6 - 0.3)
    assert clearing.seller_grid_export_kwh["s2"] == pytest.approx(0.4 - 0.2)


def test_no_market_clearing():
    coalitions = form_coalitions(0, [state("b1", -0.5), state("b2", -0.2)])
    clearing = clear_market(coalitions, 100.0, PAPER_PARAMETERS)
    assert clearing.case == MarketCase.NO_MARKET
    assert len(clearing.trades) == 0
    assert clearing.buyer_grid_import_kwh["b1"] == pytest.approx(0.5)


def test_out_of_band_price_rejected():
    coalitions = form_coalitions(0, [state("s1", 0.2), state("b1", -0.5)])
    with pytest.raises(ValueError):
        clear_market(coalitions, 120.0, PAPER_PARAMETERS)
    with pytest.raises(ValueError):
        clear_market(coalitions, 80.0, PAPER_PARAMETERS)


def test_traded_energy_equals_min_supply_demand():
    coalitions = form_coalitions(
        0, [state("s1", 0.3), state("s2", 0.2), state("b1", -0.4), state("b2", -0.2)]
    )
    clearing = clear_market(coalitions, 100.0, PAPER_PARAMETERS)
    assert clearing.traded_energy_kwh == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.001, max_value=2.0), min_size=1, max_size=8),
    st.lists(st.floats(min_value=0.001, max_value=2.0), min_size=1, max_size=8),
    st.floats(min_value=90.0, max_value=110.0),
)
def test_clearing_conservation_property(supplies, demands, price):
    """Energy conservation and payment consistency hold for any market."""
    states = [state(f"s{i}", supply) for i, supply in enumerate(supplies)]
    states += [state(f"b{i}", -demand) for i, demand in enumerate(demands)]
    coalitions = form_coalitions(0, states)
    clearing = clear_market(coalitions, price, PAPER_PARAMETERS)

    total_supply = sum(supplies)
    total_demand = sum(demands)
    traded = clearing.traded_energy_kwh
    assert traded == pytest.approx(min(total_supply, total_demand), rel=1e-6)

    # Per-seller: sold + exported == surplus;  per-buyer: bought + imported == demand.
    for i, supply in enumerate(supplies):
        sid = f"s{i}"
        assert clearing.seller_sold_kwh[sid] + clearing.seller_grid_export_kwh[sid] == pytest.approx(
            supply, rel=1e-6
        )
    for i, demand in enumerate(demands):
        bid = f"b{i}"
        assert clearing.buyer_bought_kwh[bid] + clearing.buyer_grid_import_kwh[bid] == pytest.approx(
            demand, rel=1e-6
        )
    # Payments equal price times traded energy.
    assert sum(clearing.trades.payment) == pytest.approx(price * traded, rel=1e-6)


# -- the Trade record ------------------------------------------------------------------


def test_trade_keeps_its_fields_repr_and_immutability():
    from repro.core.market import Trade

    trade = Trade("s1", "b1", 0.25, 23.75)
    assert Trade._fields == ("seller_id", "buyer_id", "energy_kwh", "payment")
    assert trade == Trade(seller_id="s1", buyer_id="b1", energy_kwh=0.25, payment=23.75)
    assert (trade.seller_id, trade.buyer_id, trade.energy_kwh, trade.payment) == (
        "s1", "b1", 0.25, 23.75
    )  # fmt: skip
    assert repr(trade) == "Trade(seller_id='s1', buyer_id='b1', energy_kwh=0.25, payment=23.75)"
    with pytest.raises(AttributeError):
        trade.payment = 0.0
    assert trade._replace(payment=0.0) == Trade("s1", "b1", 0.25, 0.0) != trade


def test_trade_equality_hashing_and_pickling():
    import pickle

    from repro.core.market import Trade

    trade = Trade("s1", "b1", 0.1 + 0.2, 95.0 * (0.1 + 0.2))
    twin = Trade("s1", "b1", 0.1 + 0.2, 95.0 * (0.1 + 0.2))
    assert trade == twin and hash(trade) == hash(twin) and len({trade, twin}) == 1
    assert trade != Trade("s1", "b1", 0.3, 95.0 * 0.3)  # 0.1 + 0.2 != 0.3: exact floats
    restored = pickle.loads(pickle.dumps(trade))
    assert type(restored) is Trade and restored == trade
    assert restored.energy_kwh.hex() == trade.energy_kwh.hex()


def test_shard_outcomes_pickle_and_identical_to_reads_every_trade():
    """A report's trades survive the pickling shard outcomes go through, bit for bit."""
    import dataclasses
    import pickle

    import helpers

    report = helpers.tiny_market_serial_report()
    assert any(trace.result.clearing and trace.result.clearing.trades for trace in report.traces)
    copy = pickle.loads(pickle.dumps(report))
    assert copy.identical_to(report) and report.identical_to(copy)
    index, result = next(
        (i, trace.result) for i, trace in enumerate(copy.traces) if trace.result.clearing
    )
    clearing = result.clearing
    trades = list(clearing.trades)
    trades[0] = trades[0]._replace(payment=trades[0].payment + 1e-9)
    book = clearing.trades
    result.clearing = dataclasses.replace(
        clearing, trades=book_from_trades(trades, book.seller_ids, book.buyer_ids)
    )
    assert not result.economically_equal(report.traces[index].result)
    assert not copy.identical_to(report)
    result.clearing = clearing
    assert copy.identical_to(report)
