"""Numerical oracles for the Stackelberg equilibrium of ``repro.core.game``.

The product computes the equilibrium in closed form (Eq. 10, Eq. 13).
These two functions search for it numerically instead, so the tests can
confirm that the closed forms are the argmax of Eq. 4 and the minimizer of
the leader's strictly convex total cost (Eq. 11) — that the implementation
reproduces the paper's Lemma 1 reasoning rather than assuming it.  Nothing
outside the test suite may import this module.
"""

from __future__ import annotations

import math
from typing import Iterable, List

from repro.core.agent import AgentWindowState
from repro.core.coalition import Coalitions
from repro.core.game import optimal_load_profile, seller_utility
from repro.core.params import MarketParameters


def best_response_load(
    state: AgentWindowState, price: float, grid_points: int = 2001, max_load: float | None = None
) -> float:
    """Numerically search the seller's best-response load (the argmax of Eq. 4)."""
    upper = max_load if max_load is not None else max(
        4.0 * state.load_rate_kw + 10.0, 2.0 * state.preference_k / max(price, 1e-9)
    )
    best_load, best_value = 0.0, -math.inf
    for i in range(grid_points):
        candidate = upper * i / (grid_points - 1)
        value = seller_utility(
            state.preference_k,
            candidate,
            state.generation_rate_kw,
            state.battery_rate_kw,
            state.battery_loss_coefficient,
            price,
        )
        if value > best_value:
            best_value, best_load = value, candidate
    return best_load


def total_cost_curve(
    coalitions: Coalitions, params: MarketParameters, prices: Iterable[float]
) -> List[float]:
    """Evaluate the leader's total-cost objective along a price grid.

    Substitutes each seller's best response (Eq. 10) into Eq. 5 and sums,
    which is the function the paper proves strictly convex (Eq. 11).
    """
    costs = []
    for price in prices:
        supply = 0.0
        for seller in coalitions.sellers:
            load = optimal_load_profile(
                seller.preference_k,
                seller.battery_rate_kw,
                seller.battery_loss_coefficient,
                price,
            )
            supply += seller.generation_rate_kw - load - seller.battery_rate_kw
        demand = sum(b.load_rate_kw + b.battery_rate_kw - b.generation_rate_kw for b in coalitions.buyers)
        costs.append(price * supply + params.retail_price * (demand - supply))
    return costs
