"""Simulated network of PEM parties: accounting + secure-channel layer.

Each smart home in the paper's prototype runs in its own Docker container;
here every party is a :class:`Party` object registered with a
:class:`SimulatedNetwork`.  The network is a pure *policy* layer: it
enforces the secure-channel discipline (messages can only be exchanged
between registered parties, and a party can only read its own inbox — which
is what lets the privacy auditor (:mod:`repro.core.adversary`) reason about
exactly which bytes each party observed), records traffic statistics and
charges simulated time through the :class:`~repro.net.costmodel.CostModel`.

The *mechanism* — how a message physically reaches the recipient — lives in
an injected :class:`~repro.net.transport.Transport`: synchronous in-process
delivery by default (:class:`~repro.net.transport.LocalTransport`), or real
length-prefixed loopback TCP (:class:`~repro.net.transport.SocketTransport`)
with bit-identical protocol behavior.  A transport may defer delivery until
its ``flush()`` barrier; every inbox read goes through that barrier first,
so a party always reads exactly what was sent to it (the protocols are
sequential and round-based anyway).
"""

from __future__ import annotations

import weakref
from collections import defaultdict, deque
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional

from .costmodel import CostModel
from .message import Message, MessageKind
from .stats import TrafficStats
from .transport import LocalTransport, Transport

__all__ = ["NetworkError", "Party", "SimulatedNetwork"]


class NetworkError(Exception):
    """Raised on misuse of the simulated network (unknown party, etc.)."""


class Party:
    """A network endpoint owned by one agent (or the grid operator).

    Parties never share Python object references for private state; all
    inter-party communication goes through :meth:`send` / :meth:`receive`,
    which is what makes the transcript collected by the adversary model an
    accurate record of each party's view.
    """

    def __init__(self, party_id: str, network: "SimulatedNetwork") -> None:
        self.party_id = party_id
        # Weak: the network owns its parties.  A strong back-reference
        # would make every dropped window network (and each message left
        # in its parties' inboxes) cyclic garbage only a full collection
        # frees.
        self._network = weakref.proxy(network)
        self._inbox: Deque[Message] = deque()

    # -- sending ---------------------------------------------------------------

    def send(
        self,
        recipient: str,
        kind: MessageKind,
        payload: bytes = b"",
        metadata: Optional[dict] = None,
    ) -> Message:
        """Send a unicast message to ``recipient``: a run of one."""
        message = Message(self.party_id, recipient, kind, payload, metadata or {})
        self._network.deliver((message,))
        return message

    def broadcast(
        self,
        recipients: Iterable[str],
        kind: MessageKind,
        payload: bytes = b"",
        metadata: Optional[dict] = None,
    ) -> List[Message]:
        """Send the same message to every party in ``recipients`` (except self).

        One run: the metadata is encoded once, whatever the audience.
        Returns the copies the transport accepted.
        """
        others = (recipient for recipient in recipients if recipient != self.party_id)
        accepted: List[Message] = []

        def run() -> Iterator[Message]:
            for message in Message.to_each(self.party_id, others, kind, payload, metadata):
                yield message
                # Resumed: the transport took it and asked for the next.
                accepted.append(message)

        self._network.deliver(run())
        return accepted

    # -- receiving -------------------------------------------------------------

    def _enqueue(self, message: Message) -> None:
        self._inbox.append(message)

    def receive(self, kind: Optional[MessageKind] = None) -> Message:
        """Pop the next message from the inbox, optionally filtered by kind.

        Like every inbox read, flushes the network first.  The
        kind-filtered path uses the same kept-deque pattern as
        :meth:`receive_all`: messages scanned before the match are popped
        into a holding deque and spliced back afterwards, so one call
        costs O(match position) instead of the O(inbox) a positional
        ``del`` on a deque would — repeated filtered drains stay linear
        overall rather than quadratic.
        """
        self._network.flush()
        if kind is None:
            if not self._inbox:
                raise NetworkError(f"{self.party_id}: inbox empty")
            return self._inbox.popleft()
        kept: Deque[Message] = deque()
        while self._inbox:
            message = self._inbox.popleft()
            if message.kind == kind:
                self._inbox.extendleft(reversed(kept))
                return message
            kept.append(message)
        self._inbox = kept
        raise NetworkError(f"{self.party_id}: no pending message of kind {kind.value}")

    def receive_all(self, kind: Optional[MessageKind] = None) -> List[Message]:
        """Pop all pending messages (optionally of one kind)."""
        self._network.flush()
        if kind is None:
            drained = list(self._inbox)
            self._inbox.clear()
            return drained
        kept: Deque[Message] = deque()
        drained = []
        while self._inbox:
            message = self._inbox.popleft()
            if message.kind == kind:
                drained.append(message)
            else:
                kept.append(message)
        self._inbox = kept
        return drained

    def pending_count(self) -> int:
        self._network.flush()
        return len(self._inbox)


class SimulatedNetwork:
    """The message fabric connecting all PEM parties.

    Args:
        cost_model: optional cost model; when provided, every message and
            every crypto operation charged via :meth:`charge_crypto_time`
            advances the simulated clock.
        transport: the delivery mechanism; defaults to synchronous
            in-process delivery (:class:`~repro.net.transport.LocalTransport`).
            The network validates, accounts and observes every message
            *before* handing it to the transport, so statistics are
            transport-invariant by construction.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self._parties: Dict[str, Party] = {}
        self.stats = TrafficStats()
        self.cost_model = cost_model
        self.transport = transport if transport is not None else LocalTransport()
        self._message_hooks: List[Callable[[Message], None]] = []

    # -- party management --------------------------------------------------------

    def register(self, party_id: str) -> Party:
        """Create and register a new party endpoint."""
        if party_id in self._parties:
            raise NetworkError(f"party {party_id!r} already registered")
        party = Party(party_id, self)
        self._parties[party_id] = party
        self.transport.register(party_id, party._enqueue)
        return party

    def party(self, party_id: str) -> Party:
        try:
            return self._parties[party_id]
        except KeyError:
            raise NetworkError(f"unknown party {party_id!r}") from None

    @property
    def party_ids(self) -> List[str]:
        return list(self._parties)

    def add_message_hook(self, hook: Callable[[Message], None]) -> None:
        """Register a callback invoked for every delivered message.

        Used by the adversary/transcript machinery and by tests that assert
        on wire contents without modifying protocol code.
        """
        self._message_hooks.append(hook)

    # -- delivery ----------------------------------------------------------------

    def deliver(self, run: Iterable[Message]) -> None:
        """Deliver a run of messages — a send, a broadcast, a whole phase — in order.

        The run may be lazy: each message is pulled, validated, accounted,
        shown to the hooks and framed before the next one exists, so a run
        that fails at message *k* leaves exactly what *k* sequential sends
        would have: *k* messages accepted by the transport, message *k*
        accounted if it got as far as the transport, nothing of the rest.
        The network keeps no message itself: once the transport has framed
        a message (or handed it to its sink), nothing here refers to it.

        Bandwidth is charged per message; *time* is charged explicitly by
        the protocols through :meth:`charge_crypto_time`, because the
        critical-path runtime depends on whether messages are sequential
        (chain hops) or concurrent (broadcasts, pairwise routing).
        """
        accounted = self._accounted(run)
        try:
            self.transport.deliver(accounted)
        finally:
            # A transport that raised left the generator parked on the
            # message it failed at; closing it books the run's totals now.
            accounted.close()

    def _accounted(self, run: Iterable[Message]) -> Iterator[Message]:
        """``run``, each message validated, accounted and hooked as it is pulled.

        Holds each message only until the transport pulls the next one.
        """
        parties = self._parties
        hooks = self._message_hooks
        stats = self.stats
        traffic = stats.per_party
        bytes_by_kind = stats.bytes_by_kind
        messages = volume = 0
        try:
            for message in run:
                if message.sender not in parties:
                    raise NetworkError(f"unknown sender {message.sender!r}")
                if message.recipient not in parties:
                    raise NetworkError(f"unknown recipient {message.recipient!r}")
                size = message.byte_size()
                messages += 1
                volume += size
                sent = traffic[message.sender]
                sent.messages_sent += 1
                sent.bytes_sent += size
                received = traffic[message.recipient]
                received.messages_received += 1
                received.bytes_received += size
                bytes_by_kind[message.kind._value_] += size
                for hook in hooks:
                    hook(message)
                yield message
        finally:
            stats.total_messages += messages
            stats.total_bytes += volume

    def flush(self) -> None:
        """Block until the transport has delivered every message sent so far.

        Raises the first delivery failure since the previous flush.  Inbox
        reads call this themselves; the engine calls it once more at the
        end of a window so no frame error outlives the window it belongs to.
        """
        self.transport.flush()

    def close(self) -> None:
        """Release the underlying transport's resources (idempotent)."""
        self.transport.close()

    # -- cost accounting ---------------------------------------------------------

    def charge_crypto_time(self, seconds: float) -> None:
        """Advance the simulated clock by a crypto-operation cost."""
        if self.cost_model is not None and seconds > 0:
            self.stats.add_time(seconds)

    def charge_offline_time(self, seconds: float) -> None:
        """Accumulate idle-time precomputation cost on the offline clock."""
        if self.cost_model is not None and seconds > 0:
            self.stats.add_offline_time(seconds)

    def charge_gc_offline_time(self, seconds: float) -> None:
        """Accumulate idle-time garbled-comparison preparation cost."""
        if self.cost_model is not None and seconds > 0:
            self.stats.add_gc_offline_time(seconds)

    def record_gc_fallback(self, count: int = 1) -> None:
        """Record comparisons whose prepared-instance pool was drained.

        Like :meth:`record_pool_fallback`, this only makes the event
        *visible*; the inline Yao protocol's cost is charged to the
        online clock through :meth:`charge_crypto_time`.
        """
        if count > 0:
            self.stats.record_gc_fallback(count)

    def record_aggregation(self, topology: str, hops: int, rounds: int) -> None:
        """Record one aggregation's per-topology hop/round counters.

        ``hops`` counts the messages the aggregation actually sent (the
        bandwidth side — identical across topologies by construction);
        ``rounds`` its critical-path depth (the latency side — what the
        latency-hiding cost model charges, O(n) for the chain, O(log n)
        for trees).  Counters are kept per topology name so traces show
        which shapes a run used and benchmarks can assert the split.
        """
        if hops or rounds:
            self.stats.record_aggregation(topology, hops, rounds)

    def record_session_established(self, count: int = 1) -> None:
        """Record protocol sessions paid for (setup charged) this window.

        Under ``session_scope="window"`` every market window establishes
        its sessions anew; under ``"day"`` only the anchor window does —
        see :mod:`repro.net.session`.
        """
        if count > 0:
            self.stats.record_sessions(established=count)

    def record_session_reused(self, count: int = 1) -> None:
        """Record windows served by an already-established session."""
        if count > 0:
            self.stats.record_sessions(reused=count)

    def record_pipeline_overlap(self, seconds: float) -> None:
        """Record offline seconds eligible to overlap the preceding slot.

        Day-scoped runs record every non-anchor window's offline clock
        here (see :attr:`TrafficStats.pipeline_overlap_seconds`); a
        pipelined scheduler may pre-stage exactly that work during the
        previous window's online phase.
        """
        if seconds > 0:
            self.stats.record_pipeline_overlap(seconds)

    def record_pool_fallback(self, count: int = 1) -> None:
        """Record encryptions whose randomizer pool was drained.

        The online exponentiation cost itself is charged through
        :meth:`charge_crypto_time`; this counter only makes the fallback
        *visible* in the traffic statistics so under-provisioned pools show
        up in traces instead of silently inflating the online clock.
        """
        if count > 0:
            self.stats.record_pool_fallback(count)

    def charge_extra_traffic(self, party_id: str, sent: int = 0, received: int = 0) -> None:
        """Charge out-of-band traffic (garbled circuit / OT bytes) to a party."""
        self.stats.record_extra_bytes(party_id, sent=sent, received=received)

    def reset_stats(self) -> TrafficStats:
        """Swap in a fresh stats object and return the old one."""
        old = self.stats
        self.stats = TrafficStats()
        return old
