"""The consortium ledger: an append-only hash-linked chain of blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .block import GENESIS_PREVIOUS_HASH, Block, SettlementTransaction
from .consensus import ConsensusError, RoundRobinConsensus, Validator

__all__ = ["ConsortiumChain", "ChainError"]


class ChainError(Exception):
    """Raised when the ledger is asked to do something inconsistent."""


@dataclass
class ConsortiumChain:
    """An in-memory consortium blockchain for PEM settlement.

    Attributes:
        consensus: the ordering service (round-robin + quorum voting).
        blocks: the committed chain (block 0 is the genesis block).
    """

    consensus: RoundRobinConsensus
    blocks: List[Block] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.blocks:
            genesis = Block(
                index=0,
                previous_hash=GENESIS_PREVIOUS_HASH,
                proposer_id="genesis",
                transactions=[],
            )
            genesis.votes = [v.validator_id for v in self.consensus.validators]
            self.blocks.append(genesis)

    # -- chain growth -------------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def append_transactions(self, transactions: Iterable[SettlementTransaction]) -> Block:
        """Order a batch of settlement transactions into a new committed block."""
        transactions = list(transactions)
        block = self.consensus.order_block(
            index=self.height + 1,
            previous_hash=self.head.block_hash(),
            transactions=transactions,
        )
        self.blocks.append(block)
        return block

    # -- verification ---------------------------------------------------------------

    def verify(self) -> bool:
        """Verify hash links, recorded roots, quorum votes and transaction consistency.

        Each block's transactions must hash to the Merkle root recorded
        when it was built, and each header (which covers that root) to
        the next block's ``previous_hash`` — so a change to any block's
        contents is caught, the head's included.
        """
        previous_hash = GENESIS_PREVIOUS_HASH
        for index, block in enumerate(self.blocks):
            if block.index != index:
                return False
            if block.previous_hash != previous_hash:
                return False
            if index > 0 and len(block.votes) < self.consensus.quorum_size:
                return False
            if block.merkle_root() != block.recorded_root:
                return False
            if not all(tx.is_consistent() for tx in block.transactions):
                return False
            previous_hash = block.block_hash()
        return True

    # -- queries ---------------------------------------------------------------------

    def all_transactions(self) -> List[SettlementTransaction]:
        return [tx for block in self.blocks for tx in block.transactions]

    def transactions_for_window(self, window: int) -> List[SettlementTransaction]:
        return [tx for tx in self.all_transactions() if tx.window == window]

    def balance_of(self, agent_id: str) -> float:
        """Net settlement balance of an agent (revenue minus spending, cents)."""
        balance = 0.0
        for tx in self.all_transactions():
            if tx.seller_id == agent_id:
                balance += tx.payment
            if tx.buyer_id == agent_id:
                balance -= tx.payment
        return balance
