"""Pluggable message transports for the PEM network layer.

The paper's prototype runs each smart home in its own Docker container and
ships protocol messages over TCP; the reproduction historically hard-wired
synchronous in-process delivery into :class:`~repro.net.network.SimulatedNetwork`.
This module splits that decision out: a :class:`Transport` moves a *run* of
:class:`~repro.net.message.Message` objects — one send, one broadcast, a
whole protocol phase — from senders to recipients, nothing more —
registration checks, traffic accounting, cost charging and the
secure-channel discipline all stay in the network layer, which treats the
transport as an injected dependency and hands it each run as a lazy
iterable it accounts message by message as the transport pulls.

Two implementations are provided:

* :class:`LocalTransport` — the historical behavior, extracted verbatim:
  synchronous in-process delivery into the recipient's inbox sink.  Zero
  overhead, and the default everywhere.
* :class:`SocketTransport` — length-prefixed frames over a real loopback
  TCP connection.  Every message is encoded once into its versioned binary
  frame (:meth:`Message.encode`, ``docs/WIRE.md``), shipped through the
  kernel's TCP stack and decoded by a receiver thread that parses every
  complete frame out of each buffer it reads; a frame that does
  not decode is a :class:`FrameError`, never arbitrary code or an
  arbitrary exception.  Acknowledgements are
  *windowed*: :meth:`Transport.deliver` only queues the run's frames, and
  :meth:`Transport.flush` — called by every inbox read and once at the end
  of a window — writes what is queued and waits for **one** cumulative
  acknowledgement covering every frame since the previous one.  One FIFO
  connection keeps delivery totally ordered, so protocol runs are
  **bit-identical** to :class:`LocalTransport` runs — same message ids,
  same inbox order, same recorded byte counts — while the bytes
  demonstrably cross a socket.

The module also exposes the framing helpers (:func:`send_frame` /
:func:`recv_frame`) reused by the runtime's socket shard fan-out
(:mod:`repro.runtime.runner`), so both socket paths speak the same
framing: a 4-byte big-endian length, at most :data:`MAX_FRAME_BYTES`,
followed by that many payload bytes.  On the message connection a
zero-length frame is the sync marker that asks for the cumulative
acknowledgement.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Callable, Dict, Iterable, Optional, Type

from .errors import AckTimeoutError, ConnectionLostError, FrameError, TransportError
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
    "MAX_FRAME_BYTES",
    "send_frame",
    "recv_frame",
]

#: Recognized transport names (the values of ``ProtocolConfig.transport``).
TRANSPORTS = ("local", "socket")

#: Frame header: 4-byte big-endian payload length.
_HEADER = struct.Struct(">I")

#: Largest frame either end accepts.  The length prefix could claim 4 GiB
#: and the reader would allocate it; nothing real comes close to this cap
#: (a 64 KiB burst frame, a ~21 KB garbled table, a shard's dataset).
MAX_FRAME_BYTES = 64 * 1024 * 1024

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


def _frame_length(length: int) -> int:
    """``length`` if a frame may be that long, else :class:`FrameError`."""
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
    return length


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame to ``sock``."""
    sock.sendall(_HEADER.pack(_frame_length(len(payload))) + payload)


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
    """Read one length-prefixed frame, or ``None`` on a clean EOF.

    Raises:
        FrameError: the length prefix exceeds :data:`MAX_FRAME_BYTES`
            (nothing of the frame is read; the stream is out of step).
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    return _recv_exact(sock, _frame_length(length))


# The cumulative acknowledgement: status, ordinal of the first failed frame,
# then the byte lengths of its sender, recipient and kind (UTF-8, empty when
# the frame did not decode that far), which follow the header.
_ACK = struct.Struct(">BIHHH")
_ACK_OK, _ACK_FAILED = 0, 1


def _encode_ack(where: Optional[FrameError]) -> bytes:
    """The ack frame: all clear, or which frame failed first."""
    if where is None:
        return _ACK.pack(_ACK_OK, 0, 0, 0, 0)
    fields = [(value or "").encode() for value in (where.sender, where.recipient, where.kind)]
    return _ACK.pack(_ACK_FAILED, where.ordinal, *map(len, fields)) + b"".join(fields)


def _decode_ack(reply: bytes) -> Optional[FrameError]:
    """``None`` for an all-clear ack, else the :class:`FrameError` it names.

    Raises:
        FrameError: the reply is not a well-formed ack.
    """
    if len(reply) < _ACK.size:
        raise FrameError(f"ack of {len(reply)} bytes is shorter than its header")
    status, ordinal, *lengths = _ACK.unpack_from(reply)
    if status == _ACK_OK and len(reply) == _ACK.size:
        return None
    if status != _ACK_FAILED or _ACK.size + sum(lengths) != len(reply):
        raise FrameError(f"malformed ack (status {status}, {len(reply)} bytes)")
    fields, start = [], _ACK.size
    try:
        for length in lengths:
            fields.append(reply[start:start + length].decode() or None)
            start += length
    except UnicodeDecodeError:
        raise FrameError("ack context is not UTF-8") from None
    sender, recipient, kind = fields
    return FrameError(
        "frame failed at the receiver",
        sender=sender,
        recipient=recipient,
        ordinal=ordinal,
        kind=kind,
    )


# ---------------------------------------------------------------------------
# The transport interface.
# ---------------------------------------------------------------------------


class Transport:
    """Moves messages between registered endpoints.

    The contract every implementation must honor (enforced by
    ``tests/net/test_transport_conformance.py``):

    * :meth:`register` binds a party id to a delivery sink exactly once;
    * :meth:`deliver` accepts a **run** of messages (any iterable; a
      single send is a run of one) for their recipients' sinks, pulling
      and accepting them one at a time, in order; each sink has its
      messages **before the next** :meth:`flush` **returns**, in the order
      they were accepted — within a run and across runs.  A transport may
      hand a message over earlier (:class:`LocalTransport` does so
      immediately).  A run that fails at message *k* — the iterable
      raised, or the transport refused the message — has accepted
      messages ``0..k-1`` exactly as *k* single-message runs would have,
      and pulls nothing after *k*;
    * :meth:`flush` is the ordering barrier: it returns once every accepted
      message is delivered, or raises the first delivery failure since the
      previous flush — after a failure nothing later was delivered.  Every
      inbox read flushes (:class:`~repro.net.network.Party`), so the
      round-based protocols still read exactly what was sent to them;
    * delivery to an unregistered recipient raises :class:`TransportError`
      from :meth:`deliver` itself, at that message;
    * :meth:`close` releases any real resources and is idempotent.
    """

    def register(self, party_id: str, sink: Sink) -> None:
        raise NotImplementedError

    def deliver(self, run: Iterable[Message]) -> None:
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

    def deliver(self, run: Iterable[Message]) -> None:
        sinks = self._sinks
        for message in run:
            sink = sinks.get(message.recipient)
            if sink is None:
                raise TransportError(f"no endpoint registered for {message.recipient!r}")
            sink(message)


class SocketTransport(Transport):
    """Length-prefixed TCP delivery over a real loopback connection.

    One listener socket and one persistent sender connection are opened at
    construction; a daemon receiver thread reads the connection a buffer
    at a time and dispatches each decoded message to the
    recipient's sink.  :meth:`deliver` takes a run under one lock
    acquisition, frames it into a bounded sender-side buffer (written out
    whenever it fills) and returns; :meth:`flush` writes the buffer plus a
    zero-length sync frame and blocks — under a deadline — for the one
    cumulative acknowledgement that covers every frame since the last.
    Frames travel one FIFO connection, so the order sinks see is the order
    the messages were accepted in: the property that makes socket runs
    bit-identical to local ones.

    The receiver fails closed: after a frame fails (the sink raised, the
    frame did not decode) it delivers nothing further until the sync
    frame, whose acknowledgement names that first failed frame — sender,
    recipient, ordinal and kind, as plain fields.  The exception itself
    never crosses the socket: the receiver thread leaves it on the
    transport and :meth:`flush` re-raises that very object in the sender,
    chained ``from`` the :class:`FrameError` the ack described — the same
    exception type :class:`LocalTransport` raises.  A lost connection or
    an overdue acknowledgement raises :class:`ConnectionLostError` /
    :class:`AckTimeoutError` naming the oldest unacknowledged frame, and
    shuts the transport.
    """

    def __init__(self, host: str = "127.0.0.1") -> None:
        self._sinks: Dict[str, Sink] = {}
        self._closed = False
        #: What the first failed frame since the last sync raised: left by
        #: the receiver thread before it acks, taken by :meth:`flush` after.
        self._failure: Optional[Exception] = None
        self._frames_sent = 0
        self._pending = bytearray()
        #: :class:`FrameError` context of the oldest frame no acknowledgement
        #: covers yet; ``None`` when everything is acked.
        self._oldest_unacked: Optional[Dict[str, object]] = None
        # Re-entrant: a lazy run is pulled under the lock, and what it runs
        # (a message hook, say) may flush or send on this same thread.
        self._lock = threading.RLock()
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
        with conn:
            # Read into one buffer that is only ever extended for a frame
            # longer than itself; ``filled`` bytes of it are unparsed input.
            buffer = bytearray(_SEND_BUFFER_BYTES)
            filled = 0
            ordinal = 0
            where: Optional[FrameError] = None  # first failure since the last sync frame
            while True:
                if filled == len(buffer):
                    buffer += bytes(len(buffer))
                try:
                    with memoryview(buffer) as view:
                        count = conn.recv_into(view[filled:])
                except OSError:
                    return
                if not count:
                    return
                filled += count
                # Every complete frame the buffer holds; a frame's tail (or
                # half a length prefix) waits for the next read.
                start = 0
                while filled - start >= _HEADER.size:
                    (length,) = _HEADER.unpack_from(buffer, start)
                    if length > MAX_FRAME_BYTES:
                        # An over-long frame leaves the stream out of step:
                        # hang up, and the sender's flush sees the connection lost.
                        return
                    body = start + _HEADER.size
                    end = body + length
                    if end > filled:
                        break
                    start = end
                    if length:
                        if where is None:
                            where = self._dispatch(bytes(buffer[body:end]), ordinal)
                        ordinal += 1
                        continue
                    try:
                        send_frame(conn, _encode_ack(where))
                    except OSError:
                        return
                    where = None
                if start:
                    buffer[: filled - start] = buffer[start:filled]
                    filled -= start

    def _dispatch(self, frame: bytes, ordinal: int) -> Optional[FrameError]:
        """Hand one frame to its sink; which frame failed, if that raised."""
        try:
            message = Message.decode(frame)
            sink = self._sinks.get(message.recipient)
            if sink is None:
                raise FrameError(
                    "frame addressed to an unregistered endpoint", **_frame_context(message)
                )
        except FrameError as exc:
            where = FrameError(
                exc.detail,
                sender=exc.sender,
                recipient=exc.recipient,
                ordinal=ordinal,
                kind=exc.kind,
            )
            self._failure = where
            return where
        try:
            sink(message)
        except Exception as exc:  # re-raised by the sender's flush()
            self._failure = exc
            return FrameError(
                "frame failed at the receiver", ordinal=ordinal, **_frame_context(message)
            )
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

    def deliver(self, run: Iterable[Message]) -> None:
        with self._lock:
            sinks, pending = self._sinks, self._pending
            for message in run:
                if self._closed:
                    raise TransportError("transport is closed")
                if message.recipient not in sinks:
                    raise TransportError(f"no endpoint registered for {message.recipient!r}")
                frame = message.encode()
                header = _HEADER.pack(_frame_length(len(frame)))
                if self._oldest_unacked is None:
                    self._oldest_unacked = dict(
                        _frame_context(message), ordinal=self._frames_sent
                    )
                self._frames_sent += 1
                pending += header
                pending += frame
                if len(pending) >= _SEND_BUFFER_BYTES:
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
            where = None if reply is None else _decode_ack(reply)
        except socket.timeout:
            raise self._shut(
                AckTimeoutError, f"no cumulative ack within {_ACK_TIMEOUT_S} s"
            ) from None
        except OSError:
            reply = None
        except FrameError as exc:
            raise self._shut(FrameError, f"unreadable cumulative ack: {exc.detail}") from None
        if reply is None:
            raise self._shut(
                ConnectionLostError, "socket transport connection lost awaiting ack"
            )
        self._oldest_unacked = None
        if where is not None:
            failure, self._failure = self._failure, None
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
