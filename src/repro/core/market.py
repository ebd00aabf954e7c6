"""Market clearing: pairwise allocation and payments (Section III-C/D).

Once the clearing price is known, PEM allocates energy between every
(seller, buyer) pair proportionally:

* **general market** (``E_s < E_b``): every seller sells its entire net
  energy; buyer ``H_j`` receives ``e_ij = sn_i * |sn_j| / E_b`` from seller
  ``H_i`` and pays ``m_ji = p* e_ij``,
* **extreme market** (``E_s >= E_b``): the price is pinned at ``pl``; buyer
  demand is fully served and seller ``H_i`` ships
  ``e_ij = |sn_j| * sn_i / E_s``; unsold seller energy goes back to the main
  grid at the feed-in price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, NamedTuple, Tuple

from .coalition import Coalitions
from .params import MarketParameters

__all__ = ["MarketCase", "Trade", "MarketClearing", "clear_market"]

#: Numerical tolerance for conservation checks.
_TOLERANCE = 1e-6


class MarketCase(str, Enum):
    """Which of the paper's two market regimes a window falls into."""

    GENERAL = "general"
    EXTREME = "extreme"
    NO_MARKET = "no_market"


class Trade(NamedTuple):
    """One pairwise energy transfer.

    An immutable record.  A window holds one per trading pair, so it is a
    tuple rather than a frozen dataclass: half the construction time and
    under half the memory.

    Attributes:
        seller_id / buyer_id: the trading pair.
        energy_kwh: ``e_ij`` routed from seller to buyer.
        payment: ``m_ji`` paid by the buyer (cents).
    """

    seller_id: str
    buyer_id: str
    energy_kwh: float
    payment: float


@dataclass
class MarketClearing:
    """Complete clearing outcome for one trading window."""

    window: int
    case: MarketCase
    clearing_price: float
    trades: List[Trade] = field(default_factory=list)
    #: per-seller energy sold on the PEM market.
    seller_sold_kwh: Dict[str, float] = field(default_factory=dict)
    #: per-seller energy sold back to the main grid (extreme market residue).
    seller_grid_export_kwh: Dict[str, float] = field(default_factory=dict)
    #: per-buyer energy bought on the PEM market.
    buyer_bought_kwh: Dict[str, float] = field(default_factory=dict)
    #: per-buyer residual energy purchased from the main grid.
    buyer_grid_import_kwh: Dict[str, float] = field(default_factory=dict)

    @property
    def traded_energy_kwh(self) -> float:
        return sum(t.energy_kwh for t in self.trades)

    @property
    def total_payments(self) -> float:
        return sum(t.payment for t in self.trades)

    def pair_energy(self, seller_id: str, buyer_id: str) -> float:
        """Energy routed between a specific pair (0 if they did not trade)."""
        return sum(
            t.energy_kwh for t in self.trades if t.seller_id == seller_id and t.buyer_id == buyer_id
        )


def clear_market(
    coalitions: Coalitions, clearing_price: float, params: MarketParameters
) -> MarketClearing:
    """Allocate pairwise trades and residual grid flows for one window.

    Args:
        coalitions: the window's seller/buyer coalitions.
        clearing_price: the PEM price for this window (from the Stackelberg
            game in the general market, or ``pl`` in the extreme market).
        params: the market parameters (used for validation only).

    Returns:
        the :class:`MarketClearing` with all pairwise trades and residuals.
    """
    window = coalitions.window
    if not coalitions.has_market:
        clearing = MarketClearing(
            window=window, case=MarketCase.NO_MARKET, clearing_price=params.retail_price
        )
        for buyer in coalitions.buyers:
            clearing.buyer_bought_kwh[buyer.agent_id] = 0.0
            clearing.buyer_grid_import_kwh[buyer.agent_id] = -buyer.net_energy_kwh
        for seller in coalitions.sellers:
            clearing.seller_sold_kwh[seller.agent_id] = 0.0
            clearing.seller_grid_export_kwh[seller.agent_id] = seller.net_energy_kwh
        return clearing

    if not params.contains(clearing_price):
        raise ValueError(
            f"clearing price {clearing_price} outside the PEM band "
            f"[{params.price_lower_bound}, {params.price_upper_bound}]"
        )

    supply = coalitions.market_supply_kwh
    demand = coalitions.market_demand_kwh
    case = MarketCase.GENERAL if supply < demand else MarketCase.EXTREME
    clearing = MarketClearing(window=window, case=case, clearing_price=clearing_price)

    if case == MarketCase.GENERAL:
        # Every seller sells everything; buyers split it by demand share.
        for seller in coalitions.sellers:
            clearing.seller_sold_kwh[seller.agent_id] = seller.net_energy_kwh
            clearing.seller_grid_export_kwh[seller.agent_id] = 0.0
        for buyer in coalitions.buyers:
            share = -buyer.net_energy_kwh / demand
            bought = share * supply
            clearing.buyer_bought_kwh[buyer.agent_id] = bought
            clearing.buyer_grid_import_kwh[buyer.agent_id] = -buyer.net_energy_kwh - bought
        for seller in coalitions.sellers:
            for buyer in coalitions.buyers:
                energy = seller.net_energy_kwh * (-buyer.net_energy_kwh) / demand
                if energy <= 0:
                    continue
                clearing.trades.append(
                    Trade(
                        seller_id=seller.agent_id,
                        buyer_id=buyer.agent_id,
                        energy_kwh=energy,
                        payment=clearing_price * energy,
                    )
                )
    else:
        # Extreme market: buyers are fully served; sellers split the demand
        # by supply share and export the rest to the grid.
        for buyer in coalitions.buyers:
            clearing.buyer_bought_kwh[buyer.agent_id] = -buyer.net_energy_kwh
            clearing.buyer_grid_import_kwh[buyer.agent_id] = 0.0
        for seller in coalitions.sellers:
            share = seller.net_energy_kwh / supply
            sold = share * demand
            clearing.seller_sold_kwh[seller.agent_id] = sold
            clearing.seller_grid_export_kwh[seller.agent_id] = seller.net_energy_kwh - sold
        for seller in coalitions.sellers:
            for buyer in coalitions.buyers:
                energy = (-buyer.net_energy_kwh) * seller.net_energy_kwh / supply
                if energy <= 0:
                    continue
                clearing.trades.append(
                    Trade(
                        seller_id=seller.agent_id,
                        buyer_id=buyer.agent_id,
                        energy_kwh=energy,
                        payment=clearing_price * energy,
                    )
                )

    _validate_conservation(clearing, supply, demand)
    return clearing


def _validate_conservation(clearing: MarketClearing, supply: float, demand: float) -> None:
    """Internal consistency checks on the clearing (energy conservation)."""
    traded = clearing.traded_energy_kwh
    expected = min(supply, demand)
    if abs(traded - expected) > _TOLERANCE * max(1.0, expected):
        raise AssertionError(
            f"traded energy {traded} differs from min(supply, demand) = {expected}"
        )
    sold = sum(clearing.seller_sold_kwh.values())
    bought = sum(clearing.buyer_bought_kwh.values())
    if abs(sold - bought) > _TOLERANCE * max(1.0, expected):
        raise AssertionError(f"seller-side total {sold} != buyer-side total {bought}")
