"""Unit tests for coalition formation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import AgentWindowState
from repro.core.coalition import form_coalitions


def make_state(agent_id: str, net: float, window: int = 0) -> AgentWindowState:
    # Build a state whose net energy equals ``net`` (no battery).
    generation = max(net, 0.0)
    load = max(-net, 0.0)
    return AgentWindowState(
        agent_id=agent_id,
        window=window,
        generation_kwh=generation,
        load_kwh=load,
        battery_kwh=0.0,
        battery_loss_coefficient=0.9,
        preference_k=100.0,
    )


def test_partition_by_role():
    states = [make_state("s1", 0.3), make_state("b1", -0.2), make_state("o1", 0.0)]
    coalitions = form_coalitions(0, states)
    assert coalitions.seller_ids == ["s1"]
    assert coalitions.buyer_ids == ["b1"]
    assert [s.agent_id for s in coalitions.off_market] == ["o1"]


def test_supply_and_demand_aggregates():
    states = [make_state("s1", 0.3), make_state("s2", 0.2), make_state("b1", -0.4)]
    coalitions = form_coalitions(0, states)
    assert coalitions.market_supply_kwh == pytest.approx(0.5)
    assert coalitions.market_demand_kwh == pytest.approx(0.4)
    assert coalitions.is_extreme_market
    assert not coalitions.is_general_market


def test_general_market_detection():
    coalitions = form_coalitions(0, [make_state("s1", 0.1), make_state("b1", -0.4)])
    assert coalitions.is_general_market
    assert coalitions.has_market


def test_no_market_when_one_side_empty():
    only_buyers = form_coalitions(0, [make_state("b1", -0.4), make_state("b2", -0.1)])
    assert not only_buyers.has_market
    assert not only_buyers.is_extreme_market
    only_sellers = form_coalitions(0, [make_state("s1", 0.4)])
    assert not only_sellers.has_market


def test_window_mismatch_rejected():
    with pytest.raises(ValueError):
        form_coalitions(1, [make_state("s1", 0.3, window=0)])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=30,
    )
)
def test_partition_is_exhaustive_and_exclusive(net_values):
    states = [make_state(f"a{i}", net) for i, net in enumerate(net_values)]
    coalitions = form_coalitions(0, states)
    total = len(coalitions.sellers) + len(coalitions.buyers) + len(coalitions.off_market)
    assert total == len(states)
    seller_ids = set(coalitions.seller_ids)
    buyer_ids = set(coalitions.buyer_ids)
    assert not (seller_ids & buyer_ids)
    assert coalitions.market_supply_kwh >= 0
    assert coalitions.market_demand_kwh >= 0
