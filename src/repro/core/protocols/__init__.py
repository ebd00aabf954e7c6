"""The PEM cryptographic protocols (Protocols 1-4 of the paper).

* :mod:`repro.core.protocols.context` — per-window execution context
  (agents, keys, codec, cost charging).
* :mod:`repro.core.protocols.topology` — pluggable aggregation
  topologies (serial chain, binary/k-ary latency-hiding trees).
* :mod:`repro.core.protocols.aggregation` — the shared encrypted-sum
  aggregation executed along a topology schedule.
* :mod:`repro.core.protocols.market_evaluation` — Protocol 2, Private
  Market Evaluation (Paillier aggregation + garbled-circuit comparison).
* :mod:`repro.core.protocols.pricing` — Protocol 3, Private Pricing.
* :mod:`repro.core.protocols.distribution` — Protocol 4, Private
  Distribution.
* :mod:`repro.core.protocols.engine` — Protocol 1, the orchestrating
  :class:`PrivateTradingEngine`.
"""

from .aggregation import AggregationOutcome, aggregate
from .context import AgentRuntime, KeyRing, ProtocolConfig, ProtocolContext
from .distribution import DistributionResult, run_private_distribution
from .engine import PrivateTradingEngine, PrivateWindowTrace
from .market_evaluation import MarketEvaluationResult, run_market_evaluation
from .pricing import PricingResult, run_private_pricing
from .topology import (
    AggregationHop,
    AggregationSchedule,
    AggregationTopology,
    ChainTopology,
    TreeTopology,
    resolve_topology,
)

__all__ = [
    "AgentRuntime",
    "KeyRing",
    "ProtocolConfig",
    "ProtocolContext",
    "AggregationOutcome",
    "aggregate",
    "AggregationHop",
    "AggregationSchedule",
    "AggregationTopology",
    "ChainTopology",
    "TreeTopology",
    "resolve_topology",
    "DistributionResult",
    "run_private_distribution",
    "PrivateTradingEngine",
    "PrivateWindowTrace",
    "MarketEvaluationResult",
    "run_market_evaluation",
    "PricingResult",
    "run_private_pricing",
]
