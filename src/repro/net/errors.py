"""Typed errors of the network layer's wire: the codec and the transports.

They live apart from :mod:`repro.net.transport` because the
:class:`~repro.net.message.Message` codec raises :class:`FrameError` too,
and the transports import the message module.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["TransportError", "FrameError", "ConnectionLostError", "AckTimeoutError"]


class TransportError(Exception):
    """Raised on transport-level misuse (unknown endpoint, closed transport)."""


class FrameError(TransportError):
    """A transport failure attributable to one specific frame.

    Where a plain :class:`TransportError` says "the channel broke", a
    ``FrameError`` says *which* frame broke it: it carries the sender, the
    recipient, the frame's per-transport ordinal and the message kind, so
    the runtime's incident classification (see
    :mod:`repro.runtime.supervisor`) can attribute the failure to a party
    pair and a protocol step instead of a bare string.  The codec raises
    it for every frame that does not decode, with whatever context it had
    parsed by then; the chaos engine's injected fault errors subclass it
    with a ``fault`` tag.

    Attributes:
        detail: what went wrong, without the bracketed context.
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
        self.detail = detail
        self.sender = sender
        self.recipient = recipient
        self.ordinal = ordinal
        self.kind = kind

    def __reduce__(self):
        # Keyword-only context would be dropped by the default exception
        # copy protocol (args-only); these errors cross shard connections,
        # so preserve the attribution.
        return (
            _rebuild_frame_error,
            (type(self), self.detail, self.sender, self.recipient, self.ordinal, self.kind),
        )


def _rebuild_frame_error(cls, detail, sender, recipient, ordinal, kind):
    return cls(detail, sender=sender, recipient=recipient, ordinal=ordinal, kind=kind)


class ConnectionLostError(FrameError):
    """The socket half-closed with frames unacknowledged (names the oldest)."""

    fault = "connection-lost"


class AckTimeoutError(FrameError):
    """The cumulative ack missed its deadline (names the oldest unacked frame)."""

    fault = "ack-timeout"
