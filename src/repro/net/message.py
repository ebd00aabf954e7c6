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
import struct
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Dict, Iterable, Iterator, Optional

from .errors import FrameError

__all__ = [
    "MessageKind",
    "Message",
    "encode_metadata",
    "WIRE_VERSION",
    "WIRE_HEADER_FORMAT",
]

_MESSAGE_COUNTER = itertools.count(1)

_METADATA_ENCODER = json.JSONEncoder(sort_keys=True)
#: ``JSONEncoder.encode`` builds a C encoder object per call; this is that
#: object, built once with the arguments ``json.dumps(sort_keys=True)``
#: passes — except the table of containers being encoded, so a cyclic
#: metadata dict ends in ``RecursionError`` instead of ``ValueError`` and
#: an encoding that raises leaves nothing behind for the next one.
_iterencode = c_make_encoder and c_make_encoder(
    None, _METADATA_ENCODER.default, encode_basestring_ascii, None, ": ", ", ", True, False, True
)


def encode_metadata(metadata: Dict[str, Any]) -> bytes:
    """``json.dumps(metadata, sort_keys=True).encode()``, byte for byte.

    The one place metadata becomes bytes: what :meth:`Message.byte_size`
    counts and :meth:`Message.encode` ships.  A broadcast calls it once
    and hands the result to every copy (:meth:`Message.to`).
    """
    if _iterencode is None:  # no C accelerator: the stock encoder
        return _METADATA_ENCODER.encode(metadata).encode()
    return "".join(_iterencode(metadata, 0)).encode()


#: The C scanner ``json.loads`` ends up in, without the two whitespace
#: regex passes ``JSONDecoder.decode`` makes around it.
_scan_metadata = json.JSONDecoder().scan_once

#: Version byte of the binary frame :meth:`Message.encode` writes
#: (``docs/WIRE.md``); :meth:`Message.decode` rejects any other.
WIRE_VERSION = 1

#: Fixed frame header: version, :class:`MessageKind` index, ``message_id``,
#: then the byte lengths of sender, recipient and metadata JSON.  The
#: payload is whatever follows them, so its length is the frame's.
WIRE_HEADER_FORMAT = ">BBQHHI"
_WIRE_HEADER = struct.Struct(WIRE_HEADER_FORMAT)


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


#: Wire index of every kind: its position in the enum, so new kinds are
#: appended, never inserted (an insertion renumbers the frames of a
#: mixed-version deployment without changing :data:`WIRE_VERSION`).
_KINDS = tuple(MessageKind)
#: Keyed by the plain value: hashing an enum member is a Python call.
_KIND_INDEX = {kind.value: index for index, kind in enumerate(_KINDS)}


@dataclass(slots=True, weakref_slot=True)
class Message:
    """A single protocol message.

    Attributes:
        sender: id of the sending party.
        recipient: id of the receiving party (``"*"`` for broadcast).
        kind: protocol message type.
        payload: opaque bytes (e.g. a serialized Paillier ciphertext).
        metadata: small JSON-serializable dictionary of auxiliary fields
            (window index, plaintext integers that are public, etc.).
            Fixed once the message is sized or encoded: its JSON form is
            computed once and kept.
        message_id: monotonically increasing id (assigned automatically).
    """

    sender: str
    recipient: str
    kind: MessageKind
    payload: bytes = b""
    metadata: Dict[str, Any] = field(default_factory=dict)
    message_id: int = field(default_factory=_MESSAGE_COUNTER.__next__)
    _metadata_json: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def to_each(
        cls,
        sender: str,
        recipients: Iterable[str],
        kind: MessageKind,
        payload: bytes = b"",
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Iterator["Message"]:
        """The same message for every recipient, its metadata encoded once.

        Each copy is created (and takes its id) when the consumer pulls
        it, so a run that fails part-way has used no id past the failure.
        """
        encoded = encode_metadata(metadata) if metadata else b""
        for recipient in recipients:
            message = cls(sender, recipient, kind, payload, metadata or {})
            message._metadata_json = encoded
            yield message

    def _metadata_bytes(self) -> bytes:
        """The sorted-key metadata JSON (empty for no metadata), encoded once.

        The bytes :meth:`byte_size` counts are the bytes :meth:`encode`
        puts on the wire.
        """
        encoded = self._metadata_json
        if encoded is None:
            encoded = encode_metadata(self.metadata) if self.metadata else b""
            self._metadata_json = encoded
        return encoded

    def byte_size(self) -> int:
        """Accounted size of the message: payload + serialized metadata + header.

        The 64-byte header approximates sender/recipient/kind/framing
        overhead of a small TCP/JSON envelope, matching the prototype's
        message framing closely enough for the bandwidth study; it is an
        upper bound on the real frame (``docs/WIRE.md``).
        """
        return len(self.payload) + len(self._metadata_bytes()) + 64

    def encode(self) -> bytes:
        """The message's binary wire frame (layout in ``docs/WIRE.md``).

        Raises:
            FrameError: a field does not fit its header slot.
        """
        metadata = self._metadata_bytes()
        try:
            sender = self.sender.encode()
            recipient = self.recipient.encode()
            header = _WIRE_HEADER.pack(
                WIRE_VERSION,
                _KIND_INDEX[self.kind._value_],
                self.message_id,
                len(sender),
                len(recipient),
                len(metadata),
            )
        except (struct.error, UnicodeEncodeError) as exc:
            raise FrameError(
                f"message does not fit the wire header: {exc}",
                sender=self.sender,
                recipient=self.recipient,
                kind=self.kind.value,
            ) from None
        return header + sender + recipient + metadata + self.payload

    @classmethod
    def decode(cls, frame: bytes) -> "Message":
        """Rebuild the message :meth:`encode` framed.

        Every declared length is checked against the frame before anything
        is sliced, so decoding allocates no more than the frame holds.

        Raises:
            FrameError: for *any* frame that is not a well-formed message
                (short, unknown version or kind, lengths past the end,
                ids that are not UTF-8, metadata that is not a JSON
                object), carrying the fields parsed up to that point.
        """
        if len(frame) < _WIRE_HEADER.size:
            raise FrameError(f"frame of {len(frame)} bytes is shorter than the wire header")
        version, kind_index, message_id, sender_len, recipient_len, metadata_len = (
            _WIRE_HEADER.unpack_from(frame)
        )
        if version != WIRE_VERSION:
            raise FrameError(f"unknown wire version {version}")
        if kind_index >= len(_KINDS):
            raise FrameError(f"unknown message kind index {kind_index}")
        kind = _KINDS[kind_index]
        recipient_start = _WIRE_HEADER.size + sender_len
        metadata_start = recipient_start + recipient_len
        payload_start = metadata_start + metadata_len
        if payload_start > len(frame):
            raise FrameError(
                f"declared field lengths ({payload_start} bytes) exceed the "
                f"{len(frame)}-byte frame",
                kind=kind.value,
            )
        try:
            sender = frame[_WIRE_HEADER.size:recipient_start].decode()
            recipient = frame[recipient_start:metadata_start].decode()
        except UnicodeDecodeError:
            raise FrameError("party id is not UTF-8", kind=kind.value) from None
        metadata: Any = {}
        if metadata_len:
            # Exactly one JSON object, nothing before or after it.
            try:
                text = frame[metadata_start:payload_start].decode()
                metadata, end = _scan_metadata(text, 0)
            except (ValueError, RecursionError, StopIteration):
                metadata = None
            if type(metadata) is not dict or end != len(text):
                raise FrameError(
                    "metadata is not a JSON object",
                    sender=sender,
                    recipient=recipient,
                    kind=kind.value,
                )
        return cls(sender, recipient, kind, frame[payload_start:], metadata, message_id)

    def is_broadcast(self) -> bool:
        return self.recipient == "*"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(id={self.message_id}, {self.sender}->{self.recipient}, "
            f"kind={self.kind.value}, bytes={self.byte_size()})"
        )
