"""The Stackelberg pricing game of the PEM (Section III of the paper).

The buyer coalition leads by proposing a price; each seller follows by
choosing its load profile.  Because the seller utility (Eq. 4) is strictly
concave in the load and the buyer coalition's total cost (Eq. 7, after
substituting the sellers' best responses) is strictly convex in the price,
the game has a unique equilibrium whose price is given in closed form by
Eq. 13, clamped to the PEM band by Eq. 14.

This module implements those formulas; the numerical checks of the
equilibrium properties (best response, convexity) live with the test suite
(``tests/core/equilibrium_oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from .agent import AgentWindowState
from .coalition import Coalitions
from .params import MarketParameters

__all__ = [
    "seller_utility",
    "buyer_cost",
    "buyer_coalition_total_cost",
    "optimal_load_profile",
    "unconstrained_optimal_price",
    "StackelbergOutcome",
    "solve_stackelberg",
]


def seller_utility(
    preference_k: float,
    load_kwh: float,
    generation_kwh: float,
    battery_kwh: float,
    battery_loss_coefficient: float,
    price: float,
) -> float:
    """Seller utility ``U = k log(1 + l + ε b) + p (g - l - b)`` (Eq. 4).

    Args:
        preference_k: load-behaviour preference ``k > 0``.
        load_kwh: the seller's consumption ``l``.
        generation_kwh: local generation ``g``.
        battery_kwh: battery action ``b`` (positive = charging).
        battery_loss_coefficient: ``ε`` in (0, 1).
        price: the market price ``p`` (cents/kWh).

    Returns:
        the utility value.
    """
    if preference_k <= 0:
        raise ValueError("preference_k must be positive")
    consumption_term = 1.0 + load_kwh + battery_loss_coefficient * battery_kwh
    if consumption_term <= 0:
        raise ValueError("1 + l + eps*b must be positive for the log utility")
    return preference_k * math.log(consumption_term) + price * (
        generation_kwh - load_kwh - battery_kwh
    )


def buyer_cost(
    price: float,
    market_purchase_kwh: float,
    load_kwh: float,
    generation_kwh: float,
    battery_kwh: float,
    retail_price: float,
) -> float:
    """Buyer cost ``C = p x + ps_g (l + b - g - x)`` (Eq. 5).

    ``x`` is the amount bought on the PEM market; the remaining deficit is
    purchased from the main grid at the retail price.
    """
    deficit = load_kwh + battery_kwh - generation_kwh
    if market_purchase_kwh < 0 or market_purchase_kwh > deficit + 1e-9:
        raise ValueError(
            f"market purchase {market_purchase_kwh} outside [0, deficit={deficit}]"
        )
    return price * market_purchase_kwh + retail_price * (deficit - market_purchase_kwh)


def buyer_coalition_total_cost(
    price: float,
    market_supply_kwh: float,
    market_demand_kwh: float,
    retail_price: float,
) -> float:
    """Total buyer-coalition cost ``Γ = p E_s + ps_g (E_b - E_s)`` (Eq. 7).

    Valid for the general market, where the coalition absorbs the whole
    market supply at the PEM price and buys the residual from the grid.
    """
    if market_supply_kwh > market_demand_kwh + 1e-9:
        raise ValueError("Eq. 7 applies to the general market (E_s <= E_b)")
    return price * market_supply_kwh + retail_price * (market_demand_kwh - market_supply_kwh)


def optimal_load_profile(
    preference_k: float,
    battery_rate_kw: float,
    battery_loss_coefficient: float,
    price: float,
) -> float:
    """Seller best-response load ``l* = k ε / p - 1 - ε b`` (Eq. 10 / 15).

    The returned value is clipped at zero: a negative analytic optimum means
    the seller would ideally consume nothing.
    """
    if price <= 0:
        raise ValueError("price must be positive")
    analytic = (
        preference_k * battery_loss_coefficient / price
        - 1.0
        - battery_loss_coefficient * battery_rate_kw
    )
    return max(0.0, analytic)


def unconstrained_optimal_price(
    seller_states: Sequence[AgentWindowState], retail_price: float
) -> float:
    """The interior optimum ``p̂`` of Eq. 13.

    ``p̂ = sqrt( ps_g * Σ k_i / Σ (g_i + 1 + ε_i b_i - b_i) )`` over the
    seller coalition, with the seller terms expressed in the rate units of
    the load-profile strategy space.
    """
    if not seller_states:
        raise ValueError("the seller coalition is empty")
    k_sum = sum(s.preference_k for s in seller_states)
    denominator = sum(s.pricing_denominator_term() for s in seller_states)
    if denominator <= 0:
        raise ValueError("pricing denominator must be positive")
    return math.sqrt(retail_price * k_sum / denominator)


@dataclass(frozen=True)
class StackelbergOutcome:
    """The equilibrium of the pricing game for one trading window.

    Attributes:
        unconstrained_price: the interior optimum ``p̂`` of Eq. 13.
        clearing_price: ``p*`` after clamping to the PEM band (Eq. 14).
        clamped_low / clamped_high: whether the band was binding.
        seller_loads: the sellers' equilibrium load profiles (Eq. 15), in the
            same order as the seller coalition.
    """

    unconstrained_price: float
    clearing_price: float
    clamped_low: bool
    clamped_high: bool
    seller_loads: List[float]


def solve_stackelberg(
    coalitions: Coalitions, params: MarketParameters
) -> StackelbergOutcome:
    """Solve the Stackelberg game for a general-market window.

    Args:
        coalitions: the window's coalitions (must contain sellers).
        params: the PEM market parameters.

    Returns:
        the :class:`StackelbergOutcome` with the clamped equilibrium price
        and the sellers' best-response load profiles at that price.
    """
    p_hat = unconstrained_optimal_price(coalitions.sellers, params.retail_price)
    p_star = params.clamp_price(p_hat)
    loads = [
        optimal_load_profile(
            s.preference_k, s.battery_rate_kw, s.battery_loss_coefficient, p_star
        )
        for s in coalitions.sellers
    ]
    return StackelbergOutcome(
        unconstrained_price=p_hat,
        clearing_price=p_star,
        clamped_low=p_hat < params.price_lower_bound,
        clamped_high=p_hat > params.price_upper_bound,
        seller_loads=loads,
    )

