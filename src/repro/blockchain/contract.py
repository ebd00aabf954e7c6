"""The PEM settlement smart contract.

Bridges the trading engine and the consortium chain: given a cleared window
(a :class:`~repro.core.market.MarketClearing`), the contract turns every
pairwise trade into a :class:`SettlementTransaction`, enforces the contract
rules (payment equals price × energy, price inside the announced PEM band,
no duplicate settlement of a window), and commits the batch as one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set

from ..core.market import MarketClearing
from ..core.params import MarketParameters, PAPER_PARAMETERS
from .block import Block, SettlementTransaction
from .chain import ConsortiumChain

__all__ = ["ContractViolation", "SettlementContract"]


class ContractViolation(Exception):
    """Raised when a clearing violates the settlement contract rules."""


@dataclass
class SettlementContract:
    """Smart-contract logic for settling PEM trading windows on-chain.

    Attributes:
        chain: the consortium ledger the contract writes to.
        params: the market parameters the contract enforces (price band).
    """

    chain: ConsortiumChain
    params: MarketParameters = PAPER_PARAMETERS
    _settled_windows: Set[int] = field(default_factory=set)

    def settle_window(self, clearing: MarketClearing) -> Optional[Block]:
        """Validate and commit all trades of one cleared window.

        Returns the committed block, or ``None`` when the window contains no
        trades (nothing to settle).

        Raises:
            ContractViolation: on duplicate settlement, an out-of-band price
                or an inconsistent payment.
        """
        if clearing.window in self._settled_windows:
            raise ContractViolation(f"window {clearing.window} is already settled")
        transactions = self._validated_transactions(clearing)
        if not transactions:
            self._settled_windows.add(clearing.window)
            return None
        block = self.chain.append_transactions(transactions)
        self._settled_windows.add(clearing.window)
        return block

    def _validated_transactions(
        self, clearing: MarketClearing
    ) -> List[SettlementTransaction]:
        """Apply the contract rules to one clearing, without committing."""
        if not clearing.trades:
            return []
        if not self.params.contains(clearing.clearing_price):
            raise ContractViolation(
                f"clearing price {clearing.clearing_price} outside the PEM band"
            )
        transactions: List[SettlementTransaction] = []
        for trade in clearing.trades:
            tx = SettlementTransaction(
                window=clearing.window,
                seller_id=trade.seller_id,
                buyer_id=trade.buyer_id,
                energy_kwh=trade.energy_kwh,
                payment=trade.payment,
                price=clearing.clearing_price,
            )
            if not tx.is_consistent():
                raise ContractViolation(
                    f"trade {trade.seller_id}->{trade.buyer_id} payment does not "
                    f"match price x energy"
                )
            transactions.append(tx)
        return transactions

    def settle_day(self, clearings: Iterable[MarketClearing]) -> List[Block]:
        """Settle a batch of cleared windows in order, atomically validated.

        The whole batch is validated (contract rules plus duplicate
        windows, within the batch and against history) *before* anything
        commits, so a rejected batch leaves no window settled and can be
        retried after correction.  Returns the committed blocks (windows
        with no trades produce no block).
        """
        batch = list(clearings)
        seen: Set[int] = set()
        for clearing in batch:
            if clearing.window in self._settled_windows or clearing.window in seen:
                raise ContractViolation(
                    f"window {clearing.window} is already settled"
                )
            seen.add(clearing.window)
            self._validated_transactions(clearing)
        blocks: List[Block] = []
        for clearing in batch:
            block = self.settle_window(clearing)
            if block is not None:
                blocks.append(block)
        return blocks
