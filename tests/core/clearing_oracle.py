"""Reference oracle: market clearing as it was written before it went columnar.

``MarketClearing.trades`` is now a :class:`~repro.core.market.TradeBook`
that ``clear_market`` and Protocol 4 fill from one outer product per window.
The per-pair loops they replaced live on here as the specification the book
is held to: one ``Trade`` per seller-buyer pair with a positive amount, in
seller-major order (buyer-major in Protocol 4's extreme market), and each
party's total summed pair by pair in that order.  For any market the product
clearing and trade legs must reproduce these bit for bit
(``test_clearing_oracle.py``).  Nothing outside the test suite may import
this module.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from helpers import book_from_trades
from repro.core.agent import AgentWindowState
from repro.core.coalition import Coalitions
from repro.core.market import MarketCase, MarketClearing, Trade
from repro.core.params import MarketParameters
from repro.net import MessageKind

#: ``(kind, sender, recipient, amount)`` of one trade leg, in send order.
Leg = Tuple[MessageKind, str, str, float]


def oracle_clear_market(
    coalitions: Coalitions, clearing_price: float, params: MarketParameters
) -> Tuple[MarketClearing, List[Trade]]:
    """``clear_market``'s general and extreme branches, one pair at a time."""
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
        return clearing, []

    supply = coalitions.market_supply_kwh
    demand = coalitions.market_demand_kwh
    case = MarketCase.GENERAL if supply < demand else MarketCase.EXTREME
    clearing = MarketClearing(window=window, case=case, clearing_price=clearing_price)
    trades: List[Trade] = []
    if case == MarketCase.GENERAL:
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
                trades.append(
                    Trade(seller.agent_id, buyer.agent_id, energy, clearing_price * energy)
                )
    else:
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
                trades.append(
                    Trade(seller.agent_id, buyer.agent_id, energy, clearing_price * energy)
                )
    clearing.trades = book_from_trades(trades, coalitions.seller_ids, coalitions.buyer_ids)
    return clearing, trades


def oracle_distribution(
    case: MarketCase,
    sellers: Sequence[AgentWindowState],
    buyers: Sequence[AgentWindowState],
    ratios: Mapping[str, float],
    clearing_price: float,
    window: int,
) -> Tuple[MarketClearing, List[Trade], List[Leg]]:
    """Protocol 4's ``allocations()`` / ``exchange()`` accumulation, pair by pair.

    ``ratios`` are the decrypted demand (general) or supply (extreme)
    ratios; the legs are what the phase sends, two per trade.
    """
    clearing = MarketClearing(window=window, case=case, clearing_price=clearing_price)
    trades: List[Trade] = []
    legs: List[Leg] = []
    bought_totals: Dict[str, float] = {}
    sold_totals: Dict[str, float] = {}

    def allocations():
        if case == MarketCase.GENERAL:
            for seller in sellers:
                surplus = seller.net_energy_kwh
                clearing.seller_sold_kwh[seller.agent_id] = surplus
                clearing.seller_grid_export_kwh[seller.agent_id] = 0.0
                for buyer in buyers:
                    yield seller.agent_id, buyer.agent_id, surplus * ratios[buyer.agent_id]
        else:
            for buyer in buyers:
                demand = -buyer.net_energy_kwh
                clearing.buyer_bought_kwh[buyer.agent_id] = demand
                clearing.buyer_grid_import_kwh[buyer.agent_id] = 0.0
                for seller in sellers:
                    yield seller.agent_id, buyer.agent_id, demand * ratios[seller.agent_id]

    for seller_id, buyer_id, energy in allocations():
        if energy <= 0:
            continue
        payment = clearing_price * energy
        trades.append(Trade(seller_id, buyer_id, energy, payment))
        sold_totals[seller_id] = sold_totals.get(seller_id, 0.0) + energy
        bought_totals[buyer_id] = bought_totals.get(buyer_id, 0.0) + energy
        legs.append((MessageKind.ENERGY_ROUTE, seller_id, buyer_id, energy))
        legs.append((MessageKind.PAYMENT, buyer_id, seller_id, payment))

    if case == MarketCase.GENERAL:
        for buyer in buyers:
            bought = bought_totals.get(buyer.agent_id, 0.0)
            clearing.buyer_bought_kwh[buyer.agent_id] = bought
            clearing.buyer_grid_import_kwh[buyer.agent_id] = max(
                0.0, -buyer.net_energy_kwh - bought
            )
    else:
        for seller in sellers:
            sold = sold_totals.get(seller.agent_id, 0.0)
            clearing.seller_sold_kwh[seller.agent_id] = sold
            clearing.seller_grid_export_kwh[seller.agent_id] = max(
                0.0, seller.net_energy_kwh - sold
            )
    clearing.trades = book_from_trades(
        trades, [s.agent_id for s in sellers], [b.agent_id for b in buyers]
    )
    return clearing, trades, legs
