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

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, NamedTuple, Tuple

import numpy as np

from .coalition import Coalitions
from .params import MarketParameters

__all__ = ["MarketCase", "Trade", "TradeBook", "MarketClearing", "clear_market", "pairwise_book"]

#: Numerical tolerance for conservation checks.
_TOLERANCE = 1e-6


class MarketCase(str, Enum):
    """Which of the paper's two market regimes a window falls into."""

    GENERAL = "general"
    EXTREME = "extreme"
    NO_MARKET = "no_market"


class Trade(NamedTuple):
    """One pairwise energy transfer, as iterating a :class:`TradeBook` yields it.

    Attributes:
        seller_id / buyer_id: the trading pair.
        energy_kwh: ``e_ij`` routed from seller to buyer.
        payment: ``m_ji`` paid by the buyer (cents).
    """

    seller_id: str
    buyer_id: str
    energy_kwh: float
    payment: float


def _frozen(values, dtype) -> np.ndarray:
    column = np.asarray(values, dtype=dtype)
    column.flags.writeable = False
    return column


class TradeBook(Sequence):
    """A window's trades as read-only columns, one row per trading pair.

    ``seller_ids`` / ``buyer_ids`` are the coalitions in their order;
    ``seller_index`` / ``buyer_index`` point into them and ``energy_kwh`` /
    ``payment`` are ``float64``, all in trade order.  A paper-scale window
    has ~10 000 pairs, so the book stores them as four arrays instead of
    one tuple and two boxed floats per pair.  It reads as a sequence of
    :class:`Trade` (built on access; a slice is a book) and equals another
    book when ids, order and every float's bits are the same.
    """

    __slots__ = ("seller_ids", "buyer_ids", "seller_index", "buyer_index", "energy_kwh", "payment")

    def __init__(
        self,
        seller_ids: Tuple[str, ...] = (),
        buyer_ids: Tuple[str, ...] = (),
        seller_index=(),
        buyer_index=(),
        energy_kwh=(),
        payment=(),
    ) -> None:
        self.seller_ids = tuple(seller_ids)
        self.buyer_ids = tuple(buyer_ids)
        self.seller_index = _frozen(seller_index, np.int32)
        self.buyer_index = _frozen(buyer_index, np.int32)
        self.energy_kwh = _frozen(energy_kwh, np.float64)
        self.payment = _frozen(payment, np.float64)

    def __reduce__(self):
        return TradeBook, (
            self.seller_ids, self.buyer_ids, self.seller_index,
            self.buyer_index, self.energy_kwh, self.payment,
        )  # fmt: skip

    def __len__(self) -> int:
        return len(self.energy_kwh)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TradeBook(
                self.seller_ids, self.buyer_ids, self.seller_index[index],
                self.buyer_index[index], self.energy_kwh[index], self.payment[index],
            )  # fmt: skip
        return Trade(
            self.seller_ids[self.seller_index[index]],
            self.buyer_ids[self.buyer_index[index]],
            float(self.energy_kwh[index]),
            float(self.payment[index]),
        )

    def __iter__(self) -> Iterator[Trade]:
        sellers, buyers = self.seller_ids, self.buyer_ids
        for seller, buyer, energy, payment in zip(
            self.seller_index.tolist(), self.buyer_index.tolist(),
            self.energy_kwh.tolist(), self.payment.tolist(),
        ):  # fmt: skip
            yield Trade(sellers[seller], buyers[buyer], energy, payment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TradeBook):
            return NotImplemented
        return (
            self.seller_ids == other.seller_ids
            and self.buyer_ids == other.buyer_ids
            and self.seller_index.tobytes() == other.seller_index.tobytes()
            and self.buyer_index.tobytes() == other.buyer_index.tobytes()
            and self.energy_kwh.tobytes() == other.energy_kwh.tobytes()
            and self.payment.tobytes() == other.payment.tobytes()
        )

    __hash__ = None  # type: ignore[assignment]


#: The book of a window without trades; books are immutable, so one is shared.
_NO_TRADES = TradeBook()


def pairwise_book(
    seller_ids: Sequence[str],
    buyer_ids: Sequence[str],
    energy: np.ndarray,
    price: float,
    buyer_major: bool = False,
) -> TradeBook:
    """The book of every pair in ``energy`` with a positive amount, row-major.

    ``energy`` is the sellers x buyers matrix of ``e_ij`` (buyers x sellers
    when ``buyer_major``); each trade pays ``price * e_ij``.
    """
    rows, columns = np.nonzero(energy > 0)
    amounts = energy[rows, columns]
    seller_index, buyer_index = (columns, rows) if buyer_major else (rows, columns)
    return TradeBook(seller_ids, buyer_ids, seller_index, buyer_index, amounts, price * amounts)


@dataclass
class MarketClearing:
    """Complete clearing outcome for one trading window."""

    window: int
    case: MarketCase
    clearing_price: float
    trades: TradeBook = field(default_factory=lambda: _NO_TRADES)
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
        # A left-to-right sum in trade order, as the per-pair loop summed it.
        return sum(self.trades.energy_kwh.tolist())


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

    # e_ij = sn_i * |sn_j| / E_b (general) or / E_s (extreme), seller-major.
    surpluses = np.array([seller.net_energy_kwh for seller in coalitions.sellers])
    demands = np.array([-buyer.net_energy_kwh for buyer in coalitions.buyers])
    energy = np.outer(surpluses, demands) / (demand if case == MarketCase.GENERAL else supply)
    clearing.trades = pairwise_book(
        coalitions.seller_ids, coalitions.buyer_ids, energy, clearing_price
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
