"""Seller/buyer coalition formation (Section III-B of the paper).

At the start of every trading window each agent classifies itself as a
seller (positive net energy), a buyer (negative net energy) or off-market
(zero net energy), and the seller and buyer coalitions are formed from those
roles.  The coalition object also exposes the aggregate market supply
``E_s`` and demand ``E_b`` (Eq. 2) — these aggregates are exactly what the
*private* protocols compute without revealing the individual terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from .agent import AgentRole, AgentWindowState

__all__ = ["Coalitions", "form_coalitions"]


@dataclass
class Coalitions:
    """The per-window partition of agents into sellers, buyers and off-market.

    Attributes:
        window: the trading-window index.
        sellers: window states of agents with positive net energy.
        buyers: window states of agents with negative net energy.
        off_market: window states with (numerically) zero net energy.
    """

    window: int
    sellers: List[AgentWindowState] = field(default_factory=list)
    buyers: List[AgentWindowState] = field(default_factory=list)
    off_market: List[AgentWindowState] = field(default_factory=list)

    @property
    def seller_ids(self) -> List[str]:
        return [s.agent_id for s in self.sellers]

    @property
    def buyer_ids(self) -> List[str]:
        return [b.agent_id for b in self.buyers]

    @property
    def market_supply_kwh(self) -> float:
        """``E_s`` — total positive net energy of the seller coalition."""
        return sum(s.net_energy_kwh for s in self.sellers)

    @property
    def market_demand_kwh(self) -> float:
        """``E_b`` — total magnitude of negative net energy of the buyers."""
        return sum(-b.net_energy_kwh for b in self.buyers)

    @property
    def is_general_market(self) -> bool:
        """General market: supply strictly below demand (``E_s < E_b``)."""
        return self.market_supply_kwh < self.market_demand_kwh

    @property
    def is_extreme_market(self) -> bool:
        """Extreme market: supply at or above demand (and a market exists)."""
        return self.has_market and not self.is_general_market

    @property
    def has_sellers(self) -> bool:
        return bool(self.sellers)

    @property
    def has_buyers(self) -> bool:
        return bool(self.buyers)

    @property
    def has_market(self) -> bool:
        """A trade can only happen when both coalitions are non-empty."""
        return self.has_sellers and self.has_buyers


def form_coalitions(window: int, states: Iterable[AgentWindowState]) -> Coalitions:
    """Partition the agents' window states into coalitions by role."""
    coalitions = Coalitions(window=window)
    for state in states:
        if state.window != window:
            raise ValueError(
                f"state for agent {state.agent_id} is for window {state.window}, "
                f"expected {window}"
            )
        role = state.role
        if role == AgentRole.SELLER:
            coalitions.sellers.append(state)
        elif role == AgentRole.BUYER:
            coalitions.buyers.append(state)
        else:
            coalitions.off_market.append(state)
    return coalitions
