"""The paper's benchmark: traditional grid-only trading ("without PEM").

Every agent interacts only with the main grid: sellers feed surplus back at
the feed-in price ``pb_g`` and buyers purchase their whole deficit at the
retail price ``ps_g``.  The evaluation section compares the PEM against this
baseline on seller utility (Fig. 6b), buyer-coalition cost (Fig. 6c) and
grid interaction (Fig. 6d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .agent import AgentWindowState
from .coalition import Coalitions
from .params import MarketParameters

__all__ = ["GridOnlyOutcome", "grid_only_window"]


@dataclass
class GridOnlyOutcome:
    """Per-window outcome when all agents trade only with the main grid."""

    window: int
    #: revenue each seller receives from the grid (cents).
    seller_revenue: Dict[str, float] = field(default_factory=dict)
    #: cost each buyer pays to the grid (cents).
    buyer_cost: Dict[str, float] = field(default_factory=dict)
    #: total energy flowing through the grid connection (kWh): exports + imports.
    grid_interaction_kwh: float = 0.0


def grid_only_window(coalitions: Coalitions, params: MarketParameters) -> GridOnlyOutcome:
    """Compute the grid-only baseline for one trading window.

    Args:
        coalitions: the window's coalitions (roles are determined by the
            same net-energy rule as the PEM, so the comparison is on equal
            footing).
        params: market parameters providing the grid prices.

    Returns:
        the :class:`GridOnlyOutcome`.
    """
    outcome = GridOnlyOutcome(window=coalitions.window)
    interaction = 0.0
    for seller in coalitions.sellers:
        exported = seller.net_energy_kwh
        outcome.seller_revenue[seller.agent_id] = params.feed_in_price * exported
        interaction += exported
    for buyer in coalitions.buyers:
        imported = -buyer.net_energy_kwh
        outcome.buyer_cost[buyer.agent_id] = params.retail_price * imported
        interaction += imported
    outcome.grid_interaction_kwh = interaction
    return outcome
