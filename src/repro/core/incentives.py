"""Incentive analysis: individual rationality and incentive compatibility.

Section V-B of the paper proves that PEM is individually rational (every
participant is at least as well off as when trading only with the main
grid) and incentive compatible (no agent gains by misreporting its data).
This module provides *empirical* checkers for both properties: they replay
a trading window with and without PEM, and with truthful versus manipulated
reports, and compare payoffs.  The test suite and the ablation benchmarks
use them to validate Theorem 2 on the synthetic traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .agent import AgentWindowState
from .params import MarketParameters, PAPER_PARAMETERS
from .pem import PlainTradingEngine
from .results import WindowResult

__all__ = [
    "RationalityReport",
    "check_individual_rationality",
    "ManipulationOutcome",
    "evaluate_seller_misreport",
    "evaluate_buyer_misreport",
]


@dataclass(frozen=True)
class RationalityReport:
    """Outcome of the individual-rationality check for one window.

    Attributes:
        window: trading-window index.
        seller_gains: per-seller utility difference (PEM minus baseline).
        buyer_savings: per-buyer cost difference (baseline minus PEM).
        all_sellers_rational: every seller weakly gains.
        all_buyers_rational: every buyer weakly saves.
    """

    window: int
    seller_gains: Dict[str, float]
    buyer_savings: Dict[str, float]
    all_sellers_rational: bool
    all_buyers_rational: bool

    @property
    def holds(self) -> bool:
        return self.all_sellers_rational and self.all_buyers_rational


def check_individual_rationality(result: WindowResult, tolerance: float = 1e-9) -> RationalityReport:
    """Check individual rationality on an already-computed window result."""
    seller_gains = {
        agent_id: result.seller_utilities[agent_id] - result.baseline_seller_utilities[agent_id]
        for agent_id in result.seller_utilities
    }
    buyer_savings = {
        agent_id: result.baseline_buyer_costs[agent_id] - result.buyer_costs[agent_id]
        for agent_id in result.buyer_costs
    }
    return RationalityReport(
        window=result.window,
        seller_gains=seller_gains,
        buyer_savings=buyer_savings,
        all_sellers_rational=all(g >= -tolerance for g in seller_gains.values()),
        all_buyers_rational=all(s >= -tolerance for s in buyer_savings.values()),
    )


@dataclass(frozen=True)
class ManipulationOutcome:
    """Payoff comparison between truthful and manipulated participation.

    Attributes:
        agent_id: the (potentially) cheating agent.
        truthful_payoff: utility (sellers) or negative cost (buyers) when
            reporting truthfully.
        manipulated_payoff: the same payoff when misreporting.
        gain: manipulated minus truthful; incentive compatibility means this
            is not (meaningfully) positive.
    """

    agent_id: str
    truthful_payoff: float
    manipulated_payoff: float

    @property
    def gain(self) -> float:
        return self.manipulated_payoff - self.truthful_payoff

    def is_profitable(self, tolerance: float = 1e-9) -> bool:
        return self.gain > tolerance


def _replace_state(
    states: Sequence[AgentWindowState], agent_id: str, **changes
) -> List[AgentWindowState]:
    replaced = []
    found = False
    for state in states:
        if state.agent_id == agent_id:
            replaced.append(state._replace(**changes))
            found = True
        else:
            replaced.append(state)
    if not found:
        raise KeyError(f"agent {agent_id!r} not present in the window states")
    return replaced


def evaluate_seller_misreport(
    states: Sequence[AgentWindowState],
    seller_id: str,
    load_scale: float,
    params: MarketParameters = PAPER_PARAMETERS,
    engine: Optional[PlainTradingEngine] = None,
) -> ManipulationOutcome:
    """Evaluate whether a seller profits from misreporting its load profile.

    The seller's *actual* physics do not change — it still has the same
    generation and consumption — but it reports a scaled load to the market,
    which shifts the computed price and its allocated sales.  The payoff is
    its true utility (Eq. 4 with its true load) evaluated at the resulting
    market price.

    Args:
        states: truthful window states of all agents.
        seller_id: the manipulating seller.
        load_scale: multiplicative distortion applied to the reported load.
        params: market parameters.
        engine: optional pre-built engine.

    Returns:
        the :class:`ManipulationOutcome` for the seller.
    """
    if load_scale <= 0:
        raise ValueError("load_scale must be positive")
    engine = engine or PlainTradingEngine(params)
    window = states[0].window

    truthful_result = engine.run_window(window, list(states))
    truthful_payoff = truthful_result.seller_utilities.get(seller_id)
    if truthful_payoff is None:
        raise KeyError(f"{seller_id!r} is not a seller in this window")

    truthful_state = next(s for s in states if s.agent_id == seller_id)
    manipulated_states = _replace_state(
        states, seller_id, load_kwh=truthful_state.load_kwh * load_scale
    )
    manipulated_result = engine.run_window(window, manipulated_states)

    # The cheater's realized payoff: its *true* utility function evaluated at
    # the manipulated market's price and its true surplus (it cannot ship
    # energy it does not have).
    price = manipulated_result.clearing_price
    if seller_id in manipulated_result.seller_utilities:
        clearing = manipulated_result.clearing
        sold = clearing.seller_sold_kwh.get(seller_id, 0.0) if clearing else 0.0
        true_surplus = truthful_state.net_energy_kwh
        effective_sold = min(sold, true_surplus) if true_surplus > 0 else 0.0
        residual = max(0.0, true_surplus - effective_sold)
        from .game import seller_utility  # local import to avoid cycle at module load

        if true_surplus > 0:
            blended = (price * effective_sold + params.feed_in_price * residual) / true_surplus
        else:
            blended = params.feed_in_price
        manipulated_payoff = seller_utility(
            truthful_state.preference_k,
            truthful_state.load_rate_kw,
            truthful_state.generation_rate_kw,
            truthful_state.battery_rate_kw,
            truthful_state.battery_loss_coefficient,
            blended,
        )
    else:
        # The misreport pushed the agent out of the seller coalition: it can
        # only sell to the grid at the feed-in price.
        from .game import seller_utility

        manipulated_payoff = seller_utility(
            truthful_state.preference_k,
            truthful_state.load_rate_kw,
            truthful_state.generation_rate_kw,
            truthful_state.battery_rate_kw,
            truthful_state.battery_loss_coefficient,
            params.feed_in_price,
        )
    return ManipulationOutcome(
        agent_id=seller_id,
        truthful_payoff=truthful_payoff,
        manipulated_payoff=manipulated_payoff,
    )


def evaluate_buyer_misreport(
    states: Sequence[AgentWindowState],
    buyer_id: str,
    demand_scale: float,
    params: MarketParameters = PAPER_PARAMETERS,
    engine: Optional[PlainTradingEngine] = None,
) -> ManipulationOutcome:
    """Evaluate whether a buyer profits from inflating/deflating its demand.

    The buyer's true demand is unchanged; the misreport only affects its
    allocated share of cheap market energy.  Its realized cost is what it
    pays for the allocated share (capped at its true demand; over-procured
    energy is wasted but still paid for) plus the retail price for whatever
    true demand remains unserved.  The payoff is the negative cost.
    """
    if demand_scale <= 0:
        raise ValueError("demand_scale must be positive")
    engine = engine or PlainTradingEngine(params)
    window = states[0].window

    truthful_result = engine.run_window(window, list(states))
    if buyer_id not in truthful_result.buyer_costs:
        raise KeyError(f"{buyer_id!r} is not a buyer in this window")
    truthful_payoff = -truthful_result.buyer_costs[buyer_id]

    truthful_state = next(s for s in states if s.agent_id == buyer_id)
    true_demand = -truthful_state.net_energy_kwh
    # Scale the *reported* demand by scaling the reported load.
    reported_load = truthful_state.generation_kwh + truthful_state.battery_kwh + true_demand * demand_scale
    manipulated_states = _replace_state(states, buyer_id, load_kwh=reported_load)
    manipulated_result = engine.run_window(window, manipulated_states)

    price = manipulated_result.clearing_price
    clearing = manipulated_result.clearing
    allocated = clearing.buyer_bought_kwh.get(buyer_id, 0.0) if clearing else 0.0
    served = min(allocated, true_demand)
    unserved = max(0.0, true_demand - served)
    realized_cost = price * allocated + params.retail_price * unserved
    return ManipulationOutcome(
        agent_id=buyer_id,
        truthful_payoff=truthful_payoff,
        manipulated_payoff=-realized_cost,
    )
