"""Tests for the grid-only baseline (trading "without PEM")."""

import pytest

from repro.core import PAPER_PARAMETERS
from repro.core.agent import AgentWindowState
from repro.core.baseline import grid_only_window
from repro.core.coalition import form_coalitions


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


def test_seller_revenue_at_feed_in_price():
    coalitions = form_coalitions(0, [state("s1", 0.5), state("b1", -0.2)])
    outcome = grid_only_window(coalitions, PAPER_PARAMETERS)
    assert outcome.seller_revenue["s1"] == pytest.approx(80.0 * 0.5)


def test_buyer_cost_at_retail_price():
    coalitions = form_coalitions(0, [state("s1", 0.5), state("b1", -0.2)])
    outcome = grid_only_window(coalitions, PAPER_PARAMETERS)
    assert outcome.buyer_cost == {"b1": pytest.approx(120.0 * 0.2)}


def test_grid_interaction_counts_both_directions():
    coalitions = form_coalitions(0, [state("s1", 0.5), state("b1", -0.2), state("b2", -0.3)])
    outcome = grid_only_window(coalitions, PAPER_PARAMETERS)
    assert outcome.grid_interaction_kwh == pytest.approx(0.5 + 0.2 + 0.3)


def test_empty_window():
    coalitions = form_coalitions(0, [])
    outcome = grid_only_window(coalitions, PAPER_PARAMETERS)
    assert outcome.grid_interaction_kwh == 0.0
    assert outcome.buyer_cost == {} and outcome.seller_revenue == {}
