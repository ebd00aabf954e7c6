"""Plaintext reference implementation of the PEM trading scheme.

This engine runs the *economics* of the PEM (Section III of the paper) in
the clear: coalition formation, market-case evaluation, Stackelberg pricing,
pairwise allocation, payments, and the grid-only baseline.  It serves three
purposes:

1. it is the correctness oracle for the cryptographic protocol engine
   (:mod:`repro.core.protocols`), which must produce identical prices and
   allocations,
2. it is fast enough to sweep all 720 windows × 300 homes for the
   energy-trading performance figures (Fig. 4 and Fig. 6), and
3. it exposes the exact quantities the figures plot (prices, coalition
   sizes, utilities, costs, grid interaction).

The result-assembly helpers (:func:`assemble_market_result`,
:func:`assemble_no_market_result`) are module-level functions shared with
the private protocol engine so that both engines produce byte-identical
result structures from the same economic inputs.

So is the battery replay both engines run before a window trades:
:func:`build_agents` makes one agent per home (optionally the first
``home_count``), and :func:`states_for_window` steps every agent through
one :func:`~repro.data.loader.iter_windows` slice of the whole dataset —
agents read the leading homes of the slice, so nothing is copied to fit.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..data.loader import WindowSlice, iter_windows
from ..data.traces import TraceDataset
from .agent import AgentWindowState, BatteryPolicy, SmartHomeAgent
from .baseline import GridOnlyOutcome, grid_only_window
from .coalition import Coalitions, form_coalitions
from .game import seller_utility, solve_stackelberg
from .market import MarketCase, MarketClearing, clear_market
from .params import MarketParameters, PAPER_PARAMETERS
from .results import TradingDayResult, WindowResult

__all__ = [
    "PlainTradingEngine",
    "build_agents",
    "states_for_window",
    "assemble_market_result",
    "assemble_no_market_result",
]


def build_agents(
    dataset: TraceDataset,
    battery_policy: Optional[BatteryPolicy] = None,
    home_count: Optional[int] = None,
) -> List[SmartHomeAgent]:
    """Instantiate one stateful agent per home in the dataset."""
    homes = dataset.homes if home_count is None else dataset.homes[:home_count]
    return [SmartHomeAgent(home.profile, battery_policy=battery_policy) for home in homes]


def states_for_window(
    agents: Sequence[SmartHomeAgent], window_slice: WindowSlice
) -> List[AgentWindowState]:
    """Feed one window of trace data to every agent and collect their states.

    Agent ``i`` reads home ``i`` of the slice, so agents built from the
    first ``home_count`` homes take the slice of the whole dataset as is.
    """
    if len(agents) > len(window_slice.home_ids):
        raise ValueError("window slice has fewer homes than agents")
    window = window_slice.window
    return [
        agent.observe_window(window, generation, load)
        for agent, generation, load in zip(
            agents, window_slice.generation_kwh, window_slice.load_kwh
        )
    ]


# ---------------------------------------------------------------------------
# Result assembly (shared between the plaintext and the private engines).
# ---------------------------------------------------------------------------


def _seller_price_utility(seller: AgentWindowState, price: float) -> float:
    """Seller utility (Eq. 4) when all surplus is remunerated at one price."""
    return seller_utility(
        seller.preference_k,
        seller.load_rate_kw,
        seller.generation_rate_kw,
        seller.battery_rate_kw,
        seller.battery_loss_coefficient,
        price,
    )


def _seller_pem_utility(
    seller: AgentWindowState,
    clearing: MarketClearing,
    price: float,
    params: MarketParameters,
) -> float:
    """Seller utility under PEM.

    In the general market all surplus is sold at the clearing price; in the
    extreme market the residual unsold energy earns the feed-in price, which
    is accounted for through the effective (blended) price applied to the
    linear revenue term of Eq. 4.
    """
    sold = clearing.seller_sold_kwh.get(seller.agent_id, 0.0)
    exported = clearing.seller_grid_export_kwh.get(seller.agent_id, 0.0)
    surplus = seller.net_energy_kwh
    if surplus <= 0:
        return _seller_price_utility(seller, price)
    blended_price = (price * sold + params.feed_in_price * exported) / surplus
    return _seller_price_utility(seller, blended_price)


def assemble_no_market_result(
    coalitions: Coalitions, baseline: GridOnlyOutcome, params: MarketParameters
) -> WindowResult:
    """Build the result for a window with an empty coalition (no trading)."""
    result = WindowResult(
        window=coalitions.window,
        coalitions=coalitions,
        case=MarketCase.NO_MARKET,
        clearing_price=params.retail_price,
        clearing=None,
        baseline=baseline,
        grid_interaction_kwh=baseline.grid_interaction_kwh,
    )
    for buyer in coalitions.buyers:
        cost = params.retail_price * (-buyer.net_energy_kwh)
        result.buyer_costs[buyer.agent_id] = cost
        result.baseline_buyer_costs[buyer.agent_id] = cost
    for seller in coalitions.sellers:
        utility = _seller_price_utility(seller, params.feed_in_price)
        result.seller_utilities[seller.agent_id] = utility
        result.baseline_seller_utilities[seller.agent_id] = utility
    return result


def assemble_market_result(
    coalitions: Coalitions,
    case: MarketCase,
    price: float,
    clearing: MarketClearing,
    baseline: GridOnlyOutcome,
    params: MarketParameters,
) -> WindowResult:
    """Build the result for a traded window from its clearing.

    Used identically by the plaintext and the cryptographic engines so the
    two can be compared field by field.
    """
    result = WindowResult(
        window=coalitions.window,
        coalitions=coalitions,
        case=case,
        clearing_price=price,
        clearing=clearing,
        baseline=baseline,
    )
    for seller in coalitions.sellers:
        result.seller_utilities[seller.agent_id] = _seller_pem_utility(
            seller, clearing, price, params
        )
        result.baseline_seller_utilities[seller.agent_id] = _seller_price_utility(
            seller, params.feed_in_price
        )
    for buyer in coalitions.buyers:
        bought = clearing.buyer_bought_kwh.get(buyer.agent_id, 0.0)
        residual = clearing.buyer_grid_import_kwh.get(buyer.agent_id, 0.0)
        result.buyer_costs[buyer.agent_id] = price * bought + params.retail_price * residual
        result.baseline_buyer_costs[buyer.agent_id] = params.retail_price * (
            -buyer.net_energy_kwh
        )
    result.grid_interaction_kwh = sum(clearing.buyer_grid_import_kwh.values()) + sum(
        clearing.seller_grid_export_kwh.values()
    )
    return result


class PlainTradingEngine:
    """Runs PEM trading windows in the clear (no cryptography).

    Args:
        params: market parameters (defaults to the paper's Section VII
            values).
    """

    def __init__(self, params: MarketParameters = PAPER_PARAMETERS) -> None:
        self.params = params

    # -- single window ----------------------------------------------------------

    def run_window(self, window: int, states: Sequence[AgentWindowState]) -> WindowResult:
        """Run one trading window given every agent's private state."""
        coalitions = form_coalitions(window, states)
        baseline = grid_only_window(coalitions, self.params)

        if not coalitions.has_market:
            return assemble_no_market_result(coalitions, baseline, self.params)

        if coalitions.is_general_market:
            case = MarketCase.GENERAL
            outcome = solve_stackelberg(coalitions, self.params)
            price = outcome.clearing_price
        else:
            case = MarketCase.EXTREME
            price = self.params.price_lower_bound

        clearing = clear_market(coalitions, price, self.params)
        return assemble_market_result(coalitions, case, price, clearing, baseline, self.params)

    # -- full day ---------------------------------------------------------------

    def run_day(
        self,
        dataset: TraceDataset,
        home_count: Optional[int] = None,
        windows: Optional[Iterable[int]] = None,
        battery_policy: Optional[BatteryPolicy] = None,
    ) -> TradingDayResult:
        """Run a sequence of trading windows over a trace dataset.

        Args:
            dataset: the generation/load traces.
            home_count: restrict to the first N homes (the paper sweeps
                100-300).
            windows: specific window indices (default: all windows in order).
            battery_policy: optional battery policy override for all agents.

        Returns:
            a :class:`TradingDayResult`.
        """
        agents = build_agents(dataset, battery_policy=battery_policy, home_count=home_count)
        selected = set(windows) if windows is not None else None
        day = TradingDayResult()
        for window_slice in iter_windows(dataset):
            # Agent (battery) state always advances window by window so that
            # a selective run sees the same states as a full-day run.
            states = states_for_window(agents, window_slice)
            if selected is not None and window_slice.window not in selected:
                continue
            day.append(self.run_window(window_slice.window, states))
        return day
