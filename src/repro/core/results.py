"""Result containers produced by the trading engines.

Both the plaintext reference engine (:mod:`repro.core.pem`) and the private
protocol engine (:mod:`repro.core.protocols`) produce the same
:class:`WindowResult` structure, which is what makes the "private == plain"
equivalence tests and all of the evaluation benchmarks engine-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from .baseline import GridOnlyOutcome
from .coalition import Coalitions
from .market import MarketCase, MarketClearing

__all__ = ["WindowResult", "TradingDayResult"]


@dataclass
class WindowResult:
    """Everything the evaluation needs about one trading window.

    Attributes:
        window: window index.
        coalitions: the seller/buyer partition of the window.
        case: general / extreme / no-market.
        clearing_price: the price agents trade at (retail price if no market).
        clearing: the pairwise allocation (None when there is no market).
        baseline: the grid-only benchmark for the same window.
        seller_utilities: per-seller utility at the PEM price (Eq. 4).
        baseline_seller_utilities: per-seller utility when selling to the
            grid at the feed-in price instead.
        buyer_costs: per-buyer cost with the PEM (Eq. 5).
        baseline_buyer_costs: per-buyer cost when buying only from the grid.
        grid_interaction_kwh: energy exchanged with the main grid under PEM.
        simulated_runtime_seconds: protocol runtime charged by the cost model
            (0 for the plaintext engine).
        bandwidth_bytes: total protocol traffic in bytes (0 for plaintext).
    """

    window: int
    coalitions: Coalitions
    case: MarketCase
    clearing_price: float
    clearing: Optional[MarketClearing]
    baseline: GridOnlyOutcome
    seller_utilities: Dict[str, float] = field(default_factory=dict)
    baseline_seller_utilities: Dict[str, float] = field(default_factory=dict)
    buyer_costs: Dict[str, float] = field(default_factory=dict)
    baseline_buyer_costs: Dict[str, float] = field(default_factory=dict)
    grid_interaction_kwh: float = 0.0
    simulated_runtime_seconds: float = 0.0
    bandwidth_bytes: int = 0

    #: fields that record protocol *measurements* rather than market
    #: outcomes; everything else is economic and compared by
    #: :meth:`economically_equal`.  New fields are economic by default —
    #: a measurement field must be opted out here explicitly.
    _MEASUREMENT_FIELDS = frozenset({"simulated_runtime_seconds", "bandwidth_bytes"})

    def economically_equal(self, other: "WindowResult") -> bool:
        """Equality of the *market outcome*, ignoring protocol measurements.

        Compares every economic field (coalitions, case, price, clearing,
        utilities, costs, grid interaction) but not
        ``simulated_runtime_seconds`` / ``bandwidth_bytes``, which depend
        on deployment knobs — session scope, transport, cost model — that
        must never influence what is traded.  This is the identity the
        session-reuse and topology certificates assert.
        """
        return all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
            if f.name not in self._MEASUREMENT_FIELDS
        )

    @property
    def buyer_coalition_cost(self) -> float:
        """Total cost of the buyer coalition under PEM (the paper's Γ)."""
        return sum(self.buyer_costs.values())

    @property
    def baseline_buyer_coalition_cost(self) -> float:
        return sum(self.baseline_buyer_costs.values())

    @property
    def cost_saving_fraction(self) -> float:
        """Relative buyer-coalition saving vs. the grid-only baseline."""
        baseline = self.baseline_buyer_coalition_cost
        if baseline <= 0:
            return 0.0
        return (baseline - self.buyer_coalition_cost) / baseline


@dataclass
class TradingDayResult:
    """Results over a full run of consecutive trading windows."""

    windows: List[WindowResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.windows)

    def __iter__(self):
        return iter(self.windows)

    def append(self, result: WindowResult) -> None:
        self.windows.append(result)

    # -- convenience series used by the figure benchmarks ----------------------

    @property
    def prices(self) -> List[float]:
        return [w.clearing_price for w in self.windows]

    @property
    def seller_coalition_sizes(self) -> List[int]:
        return [len(w.coalitions.sellers) for w in self.windows]

    @property
    def buyer_coalition_sizes(self) -> List[int]:
        return [len(w.coalitions.buyers) for w in self.windows]

    @property
    def buyer_costs_with_pem(self) -> List[float]:
        return [w.buyer_coalition_cost for w in self.windows]

    @property
    def buyer_costs_without_pem(self) -> List[float]:
        return [w.baseline_buyer_coalition_cost for w in self.windows]

    @property
    def grid_interaction_with_pem(self) -> List[float]:
        return [w.grid_interaction_kwh for w in self.windows]

    @property
    def grid_interaction_without_pem(self) -> List[float]:
        return [w.baseline.grid_interaction_kwh for w in self.windows]

    def average_cost_saving_fraction(self) -> float:
        """Average relative buyer-coalition saving over windows with a market."""
        fractions = [
            w.cost_saving_fraction for w in self.windows if w.baseline_buyer_coalition_cost > 0
        ]
        if not fractions:
            return 0.0
        return sum(fractions) / len(fractions)

    def seller_utility_series(self, agent_id: str, with_pem: bool = True) -> List[float]:
        """Utility time series of one agent over windows where it sold."""
        source = "seller_utilities" if with_pem else "baseline_seller_utilities"
        series = []
        for window_result in self.windows:
            utilities = getattr(window_result, source)
            series.append(utilities.get(agent_id, float("nan")))
        return series
