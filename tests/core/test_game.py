"""Tests for the Stackelberg pricing game (Section III / Lemma 1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilibrium_oracles import best_response_load, total_cost_curve
from repro.core import PAPER_PARAMETERS
from repro.core.agent import AgentWindowState
from repro.core.coalition import form_coalitions
from repro.core.game import (
    buyer_coalition_total_cost,
    buyer_cost,
    optimal_load_profile,
    seller_utility,
    solve_stackelberg,
    unconstrained_optimal_price,
)


def seller_state(agent_id="s", k=150.0, generation=0.05, load=0.02, battery=0.0, window=0):
    return AgentWindowState(
        agent_id=agent_id,
        window=window,
        generation_kwh=generation,
        load_kwh=load,
        battery_kwh=battery,
        battery_loss_coefficient=0.9,
        preference_k=k,
    )


def buyer_state(agent_id="b", load=0.08, generation=0.0, window=0):
    return AgentWindowState(
        agent_id=agent_id,
        window=window,
        generation_kwh=generation,
        load_kwh=load,
        battery_kwh=0.0,
        battery_loss_coefficient=0.9,
        preference_k=100.0,
    )


# -- utility / cost functions -----------------------------------------------------


def test_seller_utility_formula():
    value = seller_utility(100.0, 1.0, 3.0, 0.0, 0.9, 95.0)
    assert value == pytest.approx(100.0 * math.log(2.0) + 95.0 * 2.0)


def test_seller_utility_validation():
    with pytest.raises(ValueError):
        seller_utility(0.0, 1.0, 1.0, 0.0, 0.9, 95.0)
    with pytest.raises(ValueError):
        seller_utility(10.0, -2.0, 1.0, 0.0, 0.9, 95.0)


def test_buyer_cost_formula():
    # Deficit 1.0 kWh, buys 0.4 on the market at 95, rest at 120.
    cost = buyer_cost(95.0, 0.4, load_kwh=1.0, generation_kwh=0.0, battery_kwh=0.0, retail_price=120.0)
    assert cost == pytest.approx(95.0 * 0.4 + 120.0 * 0.6)


def test_buyer_cost_validates_purchase_range():
    with pytest.raises(ValueError):
        buyer_cost(95.0, 2.0, load_kwh=1.0, generation_kwh=0.0, battery_kwh=0.0, retail_price=120.0)
    with pytest.raises(ValueError):
        buyer_cost(95.0, -0.1, load_kwh=1.0, generation_kwh=0.0, battery_kwh=0.0, retail_price=120.0)


def test_buyer_coalition_total_cost_eq7():
    assert buyer_coalition_total_cost(100.0, 2.0, 5.0, 120.0) == pytest.approx(
        100.0 * 2.0 + 120.0 * 3.0
    )
    with pytest.raises(ValueError):
        buyer_coalition_total_cost(100.0, 6.0, 5.0, 120.0)


# -- optimal load profile (Eq. 10 / 15) ---------------------------------------------


def test_optimal_load_profile_follows_paper_eq10():
    # The implementation reproduces the paper's closed form verbatim:
    # l* = k*eps/p - 1 - eps*b (Eq. 10 / 15).
    assert optimal_load_profile(200.0, 0.5, 0.9, 95.0) == pytest.approx(
        200.0 * 0.9 / 95.0 - 1.0 - 0.9 * 0.5
    )


def test_optimal_load_profile_matches_numerical_best_response_lossless_battery():
    """With eps -> 1 the paper's Eq. 10 coincides with the exact argmax of Eq. 4.

    (For eps < 1 the printed Eq. 9/10 carry an extra eps factor relative to
    the literal derivative of Eq. 4 — a known inconsistency in the paper; we
    reproduce the printed formulas and verify consistency in the eps -> 1
    limit, where both agree.)
    """
    state = AgentWindowState(
        agent_id="s",
        window=0,
        generation_kwh=0.05,
        load_kwh=0.02,
        battery_kwh=0.0,
        battery_loss_coefficient=0.999999,
        preference_k=200.0,
    )
    price = 95.0
    analytic = optimal_load_profile(
        state.preference_k, state.battery_rate_kw, state.battery_loss_coefficient, price
    )
    numerical = best_response_load(state, price, grid_points=4001)
    assert analytic == pytest.approx(numerical, abs=2e-2)


def test_optimal_load_profile_clips_at_zero():
    assert optimal_load_profile(1.0, 0.0, 0.9, 95.0) == 0.0


def test_optimal_load_profile_rejects_nonpositive_price():
    with pytest.raises(ValueError):
        optimal_load_profile(100.0, 0.0, 0.9, 0.0)


def test_optimal_load_decreases_with_price():
    low = optimal_load_profile(200.0, 0.0, 0.9, 90.0)
    high = optimal_load_profile(200.0, 0.0, 0.9, 110.0)
    assert low > high


# -- optimal price (Eq. 13 / 14) --------------------------------------------------


def test_unconstrained_price_closed_form():
    sellers = [seller_state("s1", k=160.0), seller_state("s2", k=200.0)]
    expected = math.sqrt(
        120.0 * (160.0 + 200.0) / sum(s.pricing_denominator_term() for s in sellers)
    )
    assert unconstrained_optimal_price(sellers, 120.0) == pytest.approx(expected)


def test_unconstrained_price_requires_sellers():
    with pytest.raises(ValueError):
        unconstrained_optimal_price([], 120.0)


def test_solve_stackelberg_clamps_to_band():
    # Tiny k drives the interior optimum below pl; huge k drives it above ph.
    low = form_coalitions(0, [seller_state("s1", k=10.0), buyer_state("b1")])
    high = form_coalitions(0, [seller_state("s1", k=5000.0), buyer_state("b1")])
    low_outcome = solve_stackelberg(low, PAPER_PARAMETERS)
    high_outcome = solve_stackelberg(high, PAPER_PARAMETERS)
    assert low_outcome.clearing_price == PAPER_PARAMETERS.price_lower_bound
    assert low_outcome.clamped_low and not low_outcome.clamped_high
    assert high_outcome.clearing_price == PAPER_PARAMETERS.price_upper_bound
    assert high_outcome.clamped_high and not high_outcome.clamped_low


def test_solve_stackelberg_interior_price():
    # Choose k so that p_hat falls inside [90, 110]:
    # p_hat = sqrt(120 * 183 / (1.2 + 1)) ~= 99.9.
    sellers = [seller_state("s1", k=183.0, generation=0.02, load=0.01)]
    coalitions = form_coalitions(0, sellers + [buyer_state("b1")])
    outcome = solve_stackelberg(coalitions, PAPER_PARAMETERS)
    assert PAPER_PARAMETERS.price_lower_bound < outcome.clearing_price < PAPER_PARAMETERS.price_upper_bound
    assert outcome.unconstrained_price == pytest.approx(outcome.clearing_price)
    assert len(outcome.seller_loads) == 1


def test_total_cost_curve_is_convex_and_minimized_at_p_hat():
    sellers = [seller_state(f"s{i}", k=90.0 + 10 * i, generation=0.05) for i in range(4)]
    buyers = [buyer_state(f"b{i}", load=0.3) for i in range(6)]
    coalitions = form_coalitions(0, sellers + buyers)
    p_hat = unconstrained_optimal_price(coalitions.sellers, PAPER_PARAMETERS.retail_price)

    prices = [p_hat * factor for factor in (0.7, 0.85, 1.0, 1.15, 1.3)]
    costs = total_cost_curve(coalitions, PAPER_PARAMETERS, prices)
    # The cost at p_hat is the smallest of the sampled grid (Lemma 1).
    assert costs[2] == min(costs)
    # Discrete convexity check: second differences are non-negative.
    for left, mid, right in zip(costs, costs[1:], costs[2:]):
        assert left + right - 2 * mid >= -1e-6


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=20.0, max_value=2000.0),
    st.floats(min_value=0.1, max_value=0.3),
    st.floats(min_value=0.0, max_value=0.02),
)
def test_price_always_within_band_property(k, generation, battery):
    # Generation dominates load + battery, so the agent is always a seller.
    seller = seller_state("s", k=k, generation=generation, battery=battery)
    coalitions = form_coalitions(0, [seller, buyer_state("b", load=generation + 1.0)])
    outcome = solve_stackelberg(coalitions, PAPER_PARAMETERS)
    assert PAPER_PARAMETERS.price_lower_bound <= outcome.clearing_price
    assert outcome.clearing_price <= PAPER_PARAMETERS.price_upper_bound


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=50.0, max_value=500.0), st.floats(min_value=90.0, max_value=110.0))
def test_utility_concavity_in_load(k, price):
    """Eq. 8: the utility is concave in the load, so the midpoint dominates."""
    state = seller_state(k=k)
    loads = (0.5, 2.0)
    mid = sum(loads) / 2
    utilities = [
        seller_utility(k, load, state.generation_rate_kw, 0.0, 0.9, price) for load in loads
    ]
    mid_utility = seller_utility(k, mid, state.generation_rate_kw, 0.0, 0.9, price)
    assert mid_utility >= (utilities[0] + utilities[1]) / 2 - 1e-9
