"""Pluggable message transports for the PEM network layer.

The paper's prototype runs each smart home in its own Docker container and
ships protocol messages over TCP; the reproduction historically hard-wired
synchronous in-process delivery into :class:`~repro.net.network.SimulatedNetwork`.
This module splits that decision out: a :class:`Transport` moves one
:class:`~repro.net.message.Message` from sender to recipient, nothing more —
registration checks, traffic accounting, cost charging and the
secure-channel discipline all stay in the network layer, which treats the
transport as an injected dependency.

Two implementations are provided:

* :class:`LocalTransport` — the historical behavior, extracted verbatim:
  synchronous in-process delivery into the recipient's inbox sink.  Zero
  overhead, and the default everywhere.
* :class:`SocketTransport` — length-prefixed frames over a real loopback
  TCP connection.  Every message is serialized (pickle — the
  :class:`Message` dataclass is pickle-clean by construction, the same
  property the parallel runtime relies on), shipped through the kernel's
  TCP stack and deserialized by a receiver thread.  Acknowledgements are
  *windowed*: :meth:`Transport.deliver` only queues the frame, and
  :meth:`Transport.flush` — called by every inbox read and once at the end
  of a window — writes what is queued and waits for **one** cumulative
  acknowledgement covering every frame since the previous one.  One FIFO
  connection keeps delivery totally ordered, so protocol runs are
  **bit-identical** to :class:`LocalTransport` runs — same message ids,
  same inbox order, same recorded byte counts — while the bytes
  demonstrably cross a socket.

The module also exposes the framing helpers (:func:`send_frame` /
:func:`recv_frame`) reused by the runtime's socket shard fan-out
(:mod:`repro.runtime.runner`), so both socket paths speak the same wire
format: a 4-byte big-endian length followed by the pickled payload.  On
the message connection a zero-length frame is the sync marker that asks
for the cumulative acknowledgement.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import BinaryIO, Callable, Dict, Optional, Type

from .message import Message

__all__ = [
    "TransportError",
    "FrameError",
    "ConnectionLostError",
    "AckTimeoutError",
    "Transport",
    "LocalTransport",
    "SocketTransport",
    "make_transport",
    "TRANSPORTS",
    "send_frame",
    "recv_frame",
]

#: Recognized transport names (the values of ``ProtocolConfig.transport``).
TRANSPORTS = ("local", "socket")

#: Frame header: 4-byte big-endian payload length.
_HEADER = struct.Struct(">I")

#: Sender-side frames are queued until this many bytes are pending, then
#: written out in one ``sendall`` (the receiver reads through a buffer of
#: the same size).  Caps the memory a burst can hold on the sender.
_SEND_BUFFER_BYTES = 64 * 1024

#: Deadline, in seconds, on the socket transport's blocking waits: the
#: cumulative-ack read in :meth:`SocketTransport.flush` and any write the
#: receiver has stopped draining.
_ACK_TIMEOUT_S = 30.0

#: A delivery sink: the recipient-side callable a transport hands each
#: message to (in practice the party's inbox enqueue).
Sink = Callable[[Message], None]


class TransportError(Exception):
    """Raised on transport-level misuse (unknown endpoint, closed transport)."""


class FrameError(TransportError):
    """A transport failure attributable to one specific frame.

    Where a plain :class:`TransportError` says "the channel broke", a
    ``FrameError`` says *which* frame broke it: it carries the sender, the
    recipient, the frame's per-transport ordinal and the message kind, so
    the runtime's incident classification (see
    :mod:`repro.runtime.supervisor`) can attribute the failure to a party
    pair and a protocol step instead of a bare string.  The chaos
    engine's injected fault errors subclass this with a ``fault`` tag.

    Attributes:
        sender: message sender id (``None`` when unknown).
        recipient: message recipient id.
        ordinal: 0-based index of the frame on this transport connection.
        kind: the protocol message kind, as a string.
        fault: short machine-readable failure tag (``"connection-lost"``
            for a half-closed socket, ``"ack-timeout"`` for an overdue
            acknowledgement; the chaos faults use their kind).
    """

    fault = "frame-error"

    def __init__(
        self,
        detail: str,
        *,
        sender: Optional[str] = None,
        recipient: Optional[str] = None,
        ordinal: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> None:
        context = ", ".join(
            f"{label}={value!r}"
            for label, value in (
                ("sender", sender),
                ("recipient", recipient),
                ("frame", ordinal),
                ("kind", kind),
            )
            if value is not None
        )
        super().__init__(f"{detail} [{context}]" if context else detail)
        self._detail = detail
        self.sender = sender
        self.recipient = recipient
        self.ordinal = ordinal
        self.kind = kind

    def __reduce__(self):
        # Keyword-only context would be dropped by the default exception
        # pickling (args-only); these errors cross socket acks and shard
        # connections, so preserve the attribution.
        return (
            _rebuild_frame_error,
            (type(self), self._detail, self.sender, self.recipient, self.ordinal, self.kind),
        )


def _rebuild_frame_error(cls, detail, sender, recipient, ordinal, kind):
    return cls(detail, sender=sender, recipient=recipient, ordinal=ordinal, kind=kind)


class ConnectionLostError(FrameError):
    """The socket half-closed with frames unacknowledged (names the oldest)."""

    fault = "connection-lost"


class AckTimeoutError(FrameError):
    """The cumulative ack missed its deadline (names the oldest unacked frame)."""

    fault = "ack-timeout"


def _frame_context(message: Message) -> Dict[str, object]:
    """The :class:`FrameError` keywords that say whose frame it was."""
    return {
        "sender": message.sender,
        "recipient": message.recipient,
        "kind": message.kind.value,
    }


# ---------------------------------------------------------------------------
# Shared wire framing (also used by the runtime's socket shard fan-out).
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame to ``sock``."""
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or ``None`` on a clean EOF."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one length-prefixed frame, or ``None`` on a clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    return _recv_exact(sock, length)


def _read_frame(reader: BinaryIO) -> Optional[bytes]:
    """:func:`recv_frame` over a buffered reader (``None`` on EOF)."""
    header = reader.read(_HEADER.size)
    if len(header) < _HEADER.size:
        return None
    (length,) = _HEADER.unpack(header)
    payload = reader.read(length)
    return payload if len(payload) == length else None


# ---------------------------------------------------------------------------
# The transport interface.
# ---------------------------------------------------------------------------


class Transport:
    """Moves messages between registered endpoints.

    The contract every implementation must honor (enforced by
    ``tests/net/test_transport_conformance.py``):

    * :meth:`register` binds a party id to a delivery sink exactly once;
    * :meth:`deliver` accepts a message for the recipient's sink; the sink
      has it **before the next** :meth:`flush` **returns**, in the order the
      messages were accepted.  A transport may hand the message over
      earlier (:class:`LocalTransport` does so immediately);
    * :meth:`flush` is the ordering barrier: it returns once every accepted
      message is delivered, or raises the first delivery failure since the
      previous flush — after a failure nothing later was delivered.  Every
      inbox read flushes (:class:`~repro.net.network.Party`), so the
      round-based protocols still read exactly what was sent to them;
    * delivery to an unregistered recipient raises :class:`TransportError`
      from :meth:`deliver` itself;
    * :meth:`close` releases any real resources and is idempotent.
    """

    def register(self, party_id: str, sink: Sink) -> None:
        raise NotImplementedError

    def deliver(self, message: Message) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Block until every accepted message is delivered (no-op by default)."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release transport resources (idempotent; no-op by default)."""


class LocalTransport(Transport):
    """Synchronous in-process delivery (the historical network behavior)."""

    def __init__(self) -> None:
        self._sinks: Dict[str, Sink] = {}

    def register(self, party_id: str, sink: Sink) -> None:
        if party_id in self._sinks:
            raise TransportError(f"endpoint {party_id!r} already registered")
        self._sinks[party_id] = sink

    def deliver(self, message: Message) -> None:
        sink = self._sinks.get(message.recipient)
        if sink is None:
            raise TransportError(f"no endpoint registered for {message.recipient!r}")
        sink(message)


class SocketTransport(Transport):
    """Length-prefixed TCP delivery over a real loopback connection.

    One listener socket and one persistent sender connection are opened at
    construction; a daemon receiver thread reads frames through one
    buffered reader and dispatches each deserialized message to the
    recipient's sink.  :meth:`deliver` queues the frame in a bounded
    sender-side buffer and returns; :meth:`flush` writes the buffer plus a
    zero-length sync frame and blocks — under a deadline — for the one
    cumulative acknowledgement that covers every frame since the last.
    Frames travel one FIFO connection, so the order sinks see is the order
    of the ``deliver`` calls: the property that makes socket runs
    bit-identical to local ones.

    The receiver fails closed: after a frame fails (the sink raised, the
    frame did not deserialize) it delivers nothing further until the sync
    frame, whose acknowledgement carries that first failure back.
    :meth:`flush` re-raises it in the sender, chained ``from`` a
    :class:`FrameError` naming the failed frame's sender, recipient,
    ordinal and kind.  A lost connection or an overdue acknowledgement
    raises :class:`ConnectionLostError` / :class:`AckTimeoutError` naming
    the oldest unacknowledged frame, and shuts the transport.
    """

    _ACK_OK = b"\x00"

    def __init__(self, host: str = "127.0.0.1") -> None:
        self._sinks: Dict[str, Sink] = {}
        self._closed = False
        self._frames_sent = 0
        self._pending = bytearray()
        #: :class:`FrameError` context of the oldest frame no acknowledgement
        #: covers yet; ``None`` when everything is acked.
        self._oldest_unacked: Optional[Dict[str, object]] = None
        self._lock = threading.Lock()
        self._listener = socket.create_server((host, 0))
        port = self._listener.getsockname()[1]
        self._receiver = threading.Thread(
            target=self._serve, name="socket-transport-recv", daemon=True
        )
        self._receiver.start()
        self._sender = socket.create_connection((host, port))
        self._sender.settimeout(_ACK_TIMEOUT_S)

    # -- receiver side ---------------------------------------------------------

    def _serve(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:  # listener closed before the sender connected
            return
        with conn, conn.makefile("rb", buffering=_SEND_BUFFER_BYTES) as reader:
            ordinal = 0
            failure: Optional[bytes] = None  # first since the last sync frame
            while True:
                try:
                    frame = _read_frame(reader)
                except OSError:
                    return
                if frame is None:
                    return
                if frame:
                    if failure is None:
                        failure = self._dispatch(frame, ordinal)
                    ordinal += 1
                    continue
                try:
                    send_frame(conn, failure or self._ACK_OK)
                except OSError:
                    return
                failure = None

    def _dispatch(self, frame: bytes, ordinal: int) -> Optional[bytes]:
        """Hand one frame to its sink; the pickled failure if that raised."""
        message = None
        try:
            message = pickle.loads(frame)
            self._sinks[message.recipient](message)
        except Exception as exc:  # travels back in the cumulative ack
            context = {} if message is None else _frame_context(message)
            where = FrameError("frame failed at the receiver", ordinal=ordinal, **context)
            return pickle.dumps((exc, where))
        return None

    # -- sender side -----------------------------------------------------------

    def register(self, party_id: str, sink: Sink) -> None:
        with self._lock:
            if party_id in self._sinks:
                raise TransportError(f"endpoint {party_id!r} already registered")
            # The receiver thread reads the sink table while it dispatches:
            # drain it first, so it is parked on an empty connection (and
            # deliver() is locked out) while the table changes.
            self._flush_locked()
            self._sinks[party_id] = sink

    def deliver(self, message: Message) -> None:
        with self._lock:
            if self._closed:
                raise TransportError("transport is closed")
            if message.recipient not in self._sinks:
                raise TransportError(f"no endpoint registered for {message.recipient!r}")
            frame = pickle.dumps(message)
            if self._oldest_unacked is None:
                self._oldest_unacked = dict(
                    _frame_context(message), ordinal=self._frames_sent
                )
            self._frames_sent += 1
            self._pending += _HEADER.pack(len(frame))
            self._pending += frame
            if len(self._pending) >= _SEND_BUFFER_BYTES:
                self._write_pending()

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self._oldest_unacked is None:
            return
        if self._closed:
            raise TransportError("transport is closed")
        self._pending += _HEADER.pack(0)
        self._write_pending()
        try:
            reply = recv_frame(self._sender)
        except socket.timeout:
            raise self._shut(
                AckTimeoutError, f"no cumulative ack within {_ACK_TIMEOUT_S} s"
            ) from None
        except OSError:
            reply = None
        if reply is None:
            raise self._shut(
                ConnectionLostError, "socket transport connection lost awaiting ack"
            )
        self._oldest_unacked = None
        if reply != self._ACK_OK:
            failure, where = pickle.loads(reply)
            raise failure from where

    def _write_pending(self) -> None:
        try:
            self._sender.sendall(self._pending)
        except socket.timeout:
            raise self._shut(
                AckTimeoutError, f"receiver stopped draining for {_ACK_TIMEOUT_S} s"
            ) from None
        except OSError:
            raise self._shut(
                ConnectionLostError, "socket transport connection lost mid-write"
            ) from None
        del self._pending[:]

    def _shut(self, error: Type[FrameError], detail: str) -> FrameError:
        """Tear the broken connection down; the error naming the oldest unacked frame."""
        self._close_locked()
        return error(detail, **self._oldest_unacked)

    def _close_locked(self) -> None:
        self._closed = True
        for sock in (self._sender, self._listener):
            try:
                sock.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._close_locked()
        self._receiver.join(timeout=5)


def make_transport(name: str) -> Transport:
    """Build a transport by configuration name (``"local"`` / ``"socket"``)."""
    if name == "local":
        return LocalTransport()
    if name == "socket":
        return SocketTransport()
    raise ValueError(f"unknown transport {name!r}; expected one of {TRANSPORTS}")
