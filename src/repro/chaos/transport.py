"""A fault-injecting decorator over any :class:`~repro.net.transport.Transport`.

:class:`FaultyTransport` sits between the network's policy layer and the
real transport and injects the frame faults a :class:`~repro.chaos.plan.FaultPlan`
selects.  The model is an *authenticated, sequenced* channel — the shape of
the paper prototype's per-container TCP links (and of any TLS deployment):

* a **dropped** frame is detected by the sender: the wrapper raises
  :class:`FrameDropError` from ``deliver`` itself, the moment the frame is
  lost (the rest of its run is never sent) — it does not wait for the
  wrapped transport's next cumulative acknowledgement to come up one
  frame short;
* a **reordered** frame is detected by the receiver's sequence check: the
  chosen frame is held back, so the protocol's next read finds the inbox
  out of step (and a later flush of the stale frame is rejected as
  out-of-order, :class:`FrameReorderError`);
* a **duplicated** frame is delivered once and its replay rejected by the
  same sequence discipline (:class:`FrameDuplicateError`);
* a **corrupted** frame has a real byte flipped in its encoded wire form
  (:meth:`~repro.net.message.Message.encode`) and is caught by the frame
  digest before the frame is ever decoded (:class:`FrameCorruptionError`).

Every fault therefore surfaces as a *typed, attributable error* at the
transport seam — sender, recipient, frame ordinal and message kind attached
— and never as silently wrong protocol state.  That is the trust-model
delta documented in ``docs/CHAOS.md``: the channel detects tampering, it
does not correct it; recovery is the supervisor's job.

With a zero-fault plan the decorator is bit-transparent: every message of
a run and every ``flush`` pass straight through to the wrapped transport
(``tests/net/test_transport_conformance.py`` certifies the full transport
contract through the wrapper).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from ..net.message import Message
from ..net.transport import FrameError, Sink, Transport
from .plan import FaultPlan

__all__ = [
    "FrameFaultError",
    "FrameDropError",
    "FrameReorderError",
    "FrameDuplicateError",
    "FrameCorruptionError",
    "InjectedFault",
    "FaultyTransport",
]


class FrameFaultError(FrameError):
    """Base of the chaos-injected frame faults (all carry frame context)."""

    fault = "frame-fault"


class FrameDropError(FrameFaultError):
    """The frame was lost in transit; the sender saw no acknowledgement."""

    fault = "drop"


class FrameReorderError(FrameFaultError):
    """The frame arrived out of sequence and was rejected by the channel."""

    fault = "reorder"


class FrameDuplicateError(FrameFaultError):
    """A replayed copy of an already-delivered frame was rejected."""

    fault = "duplicate"


class FrameCorruptionError(FrameFaultError):
    """The frame's digest did not match its bytes (corruption detected)."""

    fault = "corrupt"


_FAULT_ERRORS = {
    "drop": FrameDropError,
    "reorder": FrameReorderError,
    "duplicate": FrameDuplicateError,
    "corrupt": FrameCorruptionError,
}


@dataclass(frozen=True)
class InjectedFault:
    """Ledger entry for one injected fault (deterministic fields only).

    The supervisor turns each entry into exactly one classified
    :class:`~repro.runtime.supervisor.Incident`; the fields are a pure
    function of the plan and the window, so incident ledgers are
    comparable across runs (``RunReport.identical_to``).
    """

    kind: str
    window: Optional[int] = None
    ordinal: Optional[int] = None
    sender: Optional[str] = None
    recipient: Optional[str] = None
    message_kind: Optional[str] = None
    detail: str = ""


class FaultyTransport(Transport):
    """Wraps any transport and injects the plan's frame faults.

    Args:
        inner: the real transport messages normally flow through.
        plan: the fault plan (a zero-fault plan makes the wrapper
            bit-transparent).
        window: window index the wrapped network serves (frame decisions
            key on it; ``None`` outside supervised runs).
        attempt: 0-based supervisor attempt (plans are inactive past
            ``persist_attempts``, so retries run clean by default).

    Attributes:
        injected: the attempt's fault ledger, in injection order.
    """

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        window: Optional[int] = None,
        attempt: int = 0,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.window = window
        self.attempt = attempt
        self.injected: List[InjectedFault] = []
        self._ordinal = 0
        #: a frame held back by a reorder fault, with its ordinal.
        self._held: Optional[Tuple[Message, int]] = None

    # -- transport contract ------------------------------------------------------

    def register(self, party_id: str, sink: Sink) -> None:
        self.inner.register(party_id, sink)

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()

    def deliver(self, run: Iterable[Message]) -> None:
        self.inner.deliver(self._faulted(run))

    def _faulted(self, run: Iterable[Message]) -> Iterator[Message]:
        """``run`` as the wrapped transport sees it: one fault decision per frame.

        A fault raises from inside the wrapped transport's own loop, at the
        frame it hit — what was handed over before it stays delivered, the
        rest of the run is never pulled.
        """
        window = self.window if self.window is not None else -1
        for message in run:
            ordinal = self._ordinal
            self._ordinal += 1
            fault = self.plan.frame_fault(
                window, self.attempt, ordinal, injected=len(self.injected)
            )
            if fault is None:
                yield message
                self._flush_held()
                continue
            self._record(fault, message, ordinal)
            if fault == "drop":
                # Not delivered; the channel's sequence numbers tell the sender
                # right here, ahead of the inner transport's next cumulative ack.
                raise self._error("drop", "frame lost in transit (no ack)", message, ordinal)
            if fault == "reorder":
                # Held back: the next frame overtakes it.  The protocol's
                # lock-step read discipline notices the gap immediately; if a
                # later delivery flushes the stale frame first, the sequence
                # check below rejects it.
                self._held = (message, ordinal)
                continue
            if fault == "duplicate":
                yield message
                raise self._error(
                    "duplicate", "replayed frame rejected by sequence check", message, ordinal
                )
            # corrupt: flip a real byte in the wire frame and let the digest
            # check catch it before anything is decoded.
            frame = message.encode()
            digest = hashlib.sha256(frame).digest()
            position = self.plan.corrupt_position(window, ordinal, len(frame))
            corrupted = bytearray(frame)
            corrupted[position] ^= 0x01
            if hashlib.sha256(bytes(corrupted)).digest() != digest:
                raise self._error(
                    "corrupt",
                    f"frame digest mismatch (byte {position} corrupted in transit)",
                    message,
                    ordinal,
                )
            # Unreachable (a flipped byte always changes the digest) but keeps
            # the fail-closed contract explicit: never deliver unverified bytes.
            raise self._error("corrupt", "frame corruption undetectable", message, ordinal)

    # -- helpers -----------------------------------------------------------------

    def _flush_held(self) -> None:
        if self._held is None:
            return
        message, ordinal = self._held
        self._held = None
        # The held frame is now stale: a newer frame was already
        # delivered, so the receiver's sequence check rejects it.
        raise self._error(
            "reorder", "stale frame arrived out of sequence", message, ordinal
        )

    def _record(self, kind: str, message: Message, ordinal: int) -> None:
        self.injected.append(
            InjectedFault(
                kind=kind,
                window=self.window,
                ordinal=ordinal,
                sender=message.sender,
                recipient=message.recipient,
                message_kind=message.kind.value,
                detail=f"frame #{ordinal} {message.sender}->{message.recipient}",
            )
        )

    def _error(
        self, kind: str, detail: str, message: Message, ordinal: int
    ) -> FrameFaultError:
        return _FAULT_ERRORS[kind](
            detail,
            sender=message.sender,
            recipient=message.recipient,
            ordinal=ordinal,
            kind=message.kind.value,
        )
