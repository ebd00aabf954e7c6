"""Typed messages exchanged between PEM parties.

The paper's prototype runs each smart home in its own Docker container and
exchanges protocol messages over TCP.  We reproduce the communication layer
as an in-process simulated network; messages carry real serialized payloads
(ciphertext bytes, integers, small JSON-able structures) so that the
bandwidth numbers reported in Table I come from actual byte counts rather
than estimates.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

__all__ = ["MessageKind", "Message"]

_MESSAGE_COUNTER = itertools.count(1)

#: ``json.dumps(..., sort_keys=True)`` builds a ``JSONEncoder`` per call;
#: ``byte_size`` runs once per message, so it shares this one.
_encode_metadata = json.JSONEncoder(sort_keys=True).encode


class MessageKind(str, Enum):
    """Protocol-level message types used by the PEM protocols."""

    # key distribution / initialization
    PUBLIC_KEY_ANNOUNCE = "public_key_announce"
    ROLE_ANNOUNCE = "role_announce"
    # Protocol 2: private market evaluation
    MARKET_AGGREGATE = "market_aggregate"
    MARKET_COMPARISON = "market_comparison"
    MARKET_RESULT = "market_result"
    # Protocol 3: private pricing
    PRICING_AGGREGATE = "pricing_aggregate"
    PRICE_BROADCAST = "price_broadcast"
    # Protocol 4: private distribution
    DEMAND_AGGREGATE = "demand_aggregate"
    RATIO_SUBMISSION = "ratio_submission"
    RATIO_BROADCAST = "ratio_broadcast"
    ENERGY_ROUTE = "energy_route"
    PAYMENT = "payment"
    # blockchain settlement extension
    CHAIN_TRANSACTION = "chain_transaction"
    CHAIN_BLOCK = "chain_block"
    # generic
    GENERIC = "generic"


@dataclass
class Message:
    """A single protocol message.

    Attributes:
        sender: id of the sending party.
        recipient: id of the receiving party (``"*"`` for broadcast).
        kind: protocol message type.
        payload: opaque bytes (e.g. a serialized Paillier ciphertext).
        metadata: small JSON-serializable dictionary of auxiliary fields
            (window index, plaintext integers that are public, etc.).
        message_id: monotonically increasing id (assigned automatically).
    """

    sender: str
    recipient: str
    kind: MessageKind
    payload: bytes = b""
    metadata: Dict[str, Any] = field(default_factory=dict)
    message_id: int = field(default_factory=lambda: next(_MESSAGE_COUNTER))

    def byte_size(self) -> int:
        """Wire size of the message: payload + serialized metadata + header.

        The 64-byte header approximates sender/recipient/kind/framing
        overhead of a small TCP/JSON envelope, matching the prototype's
        message framing closely enough for the bandwidth study.
        """
        metadata_bytes = len(_encode_metadata(self.metadata).encode()) if self.metadata else 0
        return len(self.payload) + metadata_bytes + 64

    def is_broadcast(self) -> bool:
        return self.recipient == "*"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(id={self.message_id}, {self.sender}->{self.recipient}, "
            f"kind={self.kind.value}, bytes={self.byte_size()})"
        )
