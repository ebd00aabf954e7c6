"""Blocks and transactions of the consortium settlement chain.

Section VI of the paper ("Blockchain Deployment") proposes realizing the
final distribution and payment between sellers and buyers as smart-contract
transactions on a consortium blockchain to guarantee integrity and
truthfulness.  This package simulates such a chain: settlement transactions
(one per pairwise trade), hash-linked blocks, and a round-robin consortium
ordering service among validator agents.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import List

__all__ = ["SettlementTransaction", "Block", "GENESIS_PREVIOUS_HASH"]

#: Previous-hash value of the genesis block.
GENESIS_PREVIOUS_HASH = "0" * 64


@dataclass(frozen=True)
class SettlementTransaction:
    """One pairwise settlement: seller ships ``energy_kwh``, buyer pays.

    Attributes:
        window: trading-window index the trade belongs to.
        seller_id / buyer_id: the trading pair.
        energy_kwh: energy routed from seller to buyer.
        payment: amount paid by the buyer (cents).
        price: the clearing price the payment was computed from.
    """

    window: int
    seller_id: str
    buyer_id: str
    energy_kwh: float
    payment: float
    price: float

    def canonical(self) -> str:
        """Deterministic JSON encoding used for hashing.

        Amounts are committed as their exact bit patterns (``float.hex``),
        never rounded: a transaction altered in any digit gets another id.
        """
        return json.dumps(
            {
                "window": self.window,
                "seller": self.seller_id,
                "buyer": self.buyer_id,
                "energy_kwh": float(self.energy_kwh).hex(),
                "payment": float(self.payment).hex(),
                "price": float(self.price).hex(),
            },
            sort_keys=True,
        )

    def transaction_id(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def is_consistent(self, tolerance: float = 1e-6) -> bool:
        """Whether the payment matches price x energy (contract validity rule)."""
        return abs(self.payment - self.price * self.energy_kwh) <= tolerance * max(
            1.0, abs(self.payment)
        )


@dataclass
class Block:
    """A block of settlement transactions.

    Attributes:
        index: block height (0 = genesis).
        previous_hash: hash of the preceding block.
        proposer_id: the validator that proposed the block.
        transactions: the ordered settlement transactions.
        votes: validator ids that endorsed the block.
        recorded_root: the Merkle root of ``transactions`` recorded when
            the block is built — the header's commitment to its contents,
            which :meth:`block_hash` covers.
    """

    index: int
    previous_hash: str
    proposer_id: str
    transactions: List[SettlementTransaction] = field(default_factory=list)
    votes: List[str] = field(default_factory=list)
    recorded_root: str = field(init=False)

    def __post_init__(self) -> None:
        self.recorded_root = self.merkle_root()

    def merkle_root(self) -> str:
        """Merkle root of the transaction ids (pairwise SHA-256)."""
        layer = [tx.transaction_id() for tx in self.transactions]
        if not layer:
            return hashlib.sha256(b"empty").hexdigest()
        while len(layer) > 1:
            if len(layer) % 2 == 1:
                layer.append(layer[-1])
            layer = [
                hashlib.sha256((layer[i] + layer[i + 1]).encode()).hexdigest()
                for i in range(0, len(layer), 2)
            ]
        return layer[0]

    def block_hash(self) -> str:
        """Hash of the header: index, links, proposer and the recorded root.

        Hashing the head to extend the chain does not rehash its
        transactions.
        """
        header = json.dumps(
            {
                "index": self.index,
                "previous_hash": self.previous_hash,
                "proposer": self.proposer_id,
                "merkle_root": self.recorded_root,
            },
            sort_keys=True,
        )
        return hashlib.sha256(header.encode()).hexdigest()

