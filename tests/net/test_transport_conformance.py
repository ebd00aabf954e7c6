"""Transport conformance suite: every transport must behave identically.

Parametrized over :class:`LocalTransport` and :class:`SocketTransport`
(and trivially extensible to future queue/remote transports): the network
layer's observable behavior — delivery order, inbox discipline, error
surface, message contents, recorded statistics — must not depend on the
mechanism that physically moves the bytes.  This is the contract that
makes ``transport="socket"`` runs bit-identical to in-process runs.

The chaos decorator rides the same contract: a :class:`FaultyTransport`
wrapping either base transport under a **zero-fault plan** must be
bit-transparent — it runs through every conformance case here as
``faulty-local`` / ``faulty-socket``.

The second half pins the flush contract of windowed acknowledgements: a
transport may defer delivery, but everything accepted is in the sinks, in
order, before the next ``flush()`` returns; the first delivery failure
since the previous flush surfaces there and nothing after it is delivered.
``deliver`` takes a *run* of messages (a send is a run of one): accepted in
order, and a run that fails at message *k* has accepted exactly *k* —
``tests/net/test_message_runs.py`` holds the network-level equivalence.
"""

import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultPlan, FaultyTransport
from repro.net import (
    LocalTransport,
    Message,
    MessageKind,
    NetworkError,
    SimulatedNetwork,
    SocketTransport,
    TransportError,
    make_transport,
)
from repro.net import transport as transport_module
from repro.net.transport import AckTimeoutError, FrameError

TRANSPORT_NAMES = ("local", "socket", "faulty-local", "faulty-socket")


def make_conformance_transport(name):
    """The conformance suite's transports, incl. zero-plan chaos wrappers."""
    if name.startswith("faulty-"):
        return FaultyTransport(make_transport(name[len("faulty-"):]), FaultPlan())
    return make_transport(name)


@pytest.fixture(params=TRANSPORT_NAMES)
def network(request):
    net = SimulatedNetwork(transport=make_conformance_transport(request.param))
    yield net
    net.close()


@pytest.fixture(params=TRANSPORT_NAMES)
def transport(request):
    """A bare transport, for the raw ``deliver`` / ``flush`` contract."""
    built = make_conformance_transport(request.param)
    yield built
    built.close()


def _generic(payload, recipient="bob"):
    return Message(sender="alice", recipient=recipient, kind=MessageKind.GENERIC, payload=payload)


def test_make_transport_names():
    assert isinstance(make_transport("local"), LocalTransport)
    socket_transport = make_transport("socket")
    try:
        assert isinstance(socket_transport, SocketTransport)
    finally:
        socket_transport.close()
    with pytest.raises(ValueError):
        make_transport("carrier-pigeon")


def test_delivery_order_preserved(network):
    alice = network.register("alice")
    bob = network.register("bob")
    for i in range(8):
        alice.send("bob", MessageKind.GENERIC, payload=bytes([i]))
    received = [bob.receive().payload for _ in range(8)]
    assert received == [bytes([i]) for i in range(8)]


def test_inbox_discipline_kind_filtering(network):
    alice = network.register("alice")
    bob = network.register("bob")
    alice.send("bob", MessageKind.GENERIC, payload=b"g1")
    alice.send("bob", MessageKind.PAYMENT, metadata={"amount": 5})
    alice.send("bob", MessageKind.GENERIC, payload=b"g2")

    payment = bob.receive(MessageKind.PAYMENT)
    assert payment.kind == MessageKind.PAYMENT
    assert payment.metadata == {"amount": 5}
    # The filtered pop must preserve the order of everything else.
    assert [m.payload for m in bob.receive_all()] == [b"g1", b"g2"]


def test_receive_missing_kind_leaves_inbox_intact(network):
    alice = network.register("alice")
    bob = network.register("bob")
    alice.send("bob", MessageKind.GENERIC, payload=b"a")
    alice.send("bob", MessageKind.GENERIC, payload=b"b")
    with pytest.raises(NetworkError):
        bob.receive(MessageKind.PAYMENT)
    assert bob.pending_count() == 2
    assert [m.payload for m in bob.receive_all()] == [b"a", b"b"]


def test_unknown_recipient_raises_network_error(network):
    alice = network.register("alice")
    with pytest.raises(NetworkError):
        alice.send("ghost", MessageKind.GENERIC)


def test_unknown_sender_raises_network_error(network):
    network.register("bob")
    message = Message(sender="ghost", recipient="bob", kind=MessageKind.GENERIC)
    with pytest.raises(NetworkError):
        network.deliver([message])


def test_message_round_trip_is_byte_identical(network):
    alice = network.register("alice")
    bob = network.register("bob")
    payload = bytes(range(256)) * 3
    metadata = {"window": 42, "role": "seller", "values": [1, 2, 3]}
    sent = alice.send("bob", MessageKind.MARKET_AGGREGATE, payload=payload, metadata=metadata)
    received = bob.receive()
    assert received.sender == sent.sender
    assert received.recipient == sent.recipient
    assert received.kind == sent.kind
    assert received.payload == sent.payload
    assert received.metadata == sent.metadata
    assert received.message_id == sent.message_id
    assert received.byte_size() == sent.byte_size()


def _run_script(network):
    """A fixed little traffic script; returns the final stats."""
    alice = network.register("alice")
    bob = network.register("bob")
    carol = network.register("carol")
    alice.broadcast(["bob", "carol"], MessageKind.ROLE_ANNOUNCE, metadata={"role": "seller"})
    bob.send("alice", MessageKind.MARKET_AGGREGATE, payload=b"c" * 129)
    carol.send("alice", MessageKind.PAYMENT, metadata={"amount": 7})
    alice.receive(MessageKind.PAYMENT)
    alice.receive_all()
    return network.stats


def test_statistics_identical_across_transports():
    collected = {}
    for name in TRANSPORT_NAMES:
        net = SimulatedNetwork(transport=make_conformance_transport(name))
        try:
            collected[name] = _run_script(net)
        finally:
            net.close()
    reference = collected["local"]
    for name, stats in collected.items():
        assert stats.snapshot() == reference.snapshot(), name
        assert stats.total_messages == reference.total_messages, name
        assert stats.total_bytes == reference.total_bytes, name
        assert dict(stats.bytes_by_kind) == dict(reference.bytes_by_kind), name


def test_duplicate_registration_rejected_at_transport_level():
    for name in TRANSPORT_NAMES:
        transport = make_conformance_transport(name)
        try:
            transport.register("alice", lambda message: None)
            with pytest.raises(TransportError):
                transport.register("alice", lambda message: None)
        finally:
            transport.close()


def test_transport_deliver_to_unregistered_endpoint():
    for name in TRANSPORT_NAMES:
        transport = make_conformance_transport(name)
        try:
            message = Message(sender="a", recipient="nobody", kind=MessageKind.GENERIC)
            with pytest.raises(TransportError):
                transport.deliver([message])
        finally:
            transport.close()


def test_close_is_idempotent():
    for name in TRANSPORT_NAMES:
        transport = make_conformance_transport(name)
        transport.close()
        transport.close()  # must not raise


def test_socket_transport_rejects_delivery_after_close():
    transport = make_transport("socket")
    received = []
    transport.register("bob", received.append)
    message = Message(sender="a", recipient="bob", kind=MessageKind.GENERIC)
    transport.deliver([message])
    transport.flush()
    assert len(received) == 1
    transport.close()
    with pytest.raises(TransportError):
        transport.deliver([message])


# -- the flush contract -----------------------------------------------------------


def test_raw_delivers_reach_the_sinks_in_order_by_the_next_flush(transport):
    received = []
    transport.register("bob", received.append)
    payloads = [index.to_bytes(2, "big") for index in range(300)]
    for payload in payloads:
        transport.deliver([_generic(payload)])
    transport.flush()
    assert [message.payload for message in received] == payloads
    transport.flush()  # nothing pending: returns at once, delivers nothing twice
    assert len(received) == len(payloads)


def test_a_run_is_accepted_in_order_and_is_in_the_sinks_by_the_next_flush(transport):
    """One deliver, many messages, several recipients: the order is the run's."""
    received = []
    for name in ("bob", "carol"):
        transport.register(name, received.append)
    payloads = [index.to_bytes(2, "big") for index in range(700)]
    pulled = []

    def run():
        for index, payload in enumerate(payloads):
            pulled.append(index)
            yield _generic(payload, recipient=("bob", "carol")[index % 2])

    transport.deliver([_generic(b"before")])
    transport.deliver(run())  # lazy: pulled one by one, each accepted before the next exists
    transport.deliver(())  # an empty run is nothing
    transport.deliver((_generic(b"after"),))
    assert pulled == list(range(len(payloads)))
    transport.flush()
    assert [message.payload for message in received] == [b"before"] + payloads + [b"after"]
    assert [m.recipient for m in received[1:5]] == ["bob", "carol", "bob", "carol"]


def test_a_run_that_fails_at_k_accepted_k_messages_and_pulled_nothing_after(transport):
    """Refused at message k, or the iterable itself raising there: same outcome."""
    received = []
    transport.register("bob", received.append)
    pulled = []

    def run(failing, refuse):
        for index in range(10):
            pulled.append(index)
            if index == failing and not refuse:
                raise _SinkFailure("the run's own iterable raised")
            yield _generic(bytes([index]), recipient="nobody" if index == failing else "bob")

    for refuse, error in ((True, TransportError), (False, _SinkFailure)):
        del pulled[:], received[:]
        with pytest.raises(error):
            transport.deliver(run(failing=6, refuse=refuse))
        assert pulled == list(range(7))
        transport.flush()  # what was accepted before k is delivered; the barrier is clean
        assert [message.payload for message in received] == [bytes([i]) for i in range(6)]
        transport.deliver([_generic(b"next")])
        transport.flush()
        assert received[-1].payload == b"next" and len(received) == 7


class _SinkFailure(Exception):
    pass


def _failing_sink(delivered, poison):
    def sink(message):
        if message.payload == poison:
            raise _SinkFailure(f"sink rejected {poison!r}")
        delivered.append(message.payload)

    return sink


def test_sink_failure_mid_burst_fails_closed_and_the_next_flush_is_clean(transport):
    delivered = []
    payloads = [bytes([index]) for index in range(12)]
    failing = 5
    transport.register("bob", _failing_sink(delivered, payloads[failing]))
    with pytest.raises(_SinkFailure):
        # In-process delivery raises from deliver() at the failing message;
        # a deferring transport accepts the whole run and raises at flush.
        transport.deliver(_generic(payload) for payload in payloads)
        transport.flush()
    # Fail closed: nothing past the failed frame ever reached the sink.
    assert delivered == payloads[:failing]
    transport.flush()  # the failure was reported once; the barrier is clean again
    transport.deliver([_generic(b"after")])
    transport.flush()
    assert delivered == payloads[:failing] + [b"after"]


def test_socket_sink_failure_names_the_failed_frame():
    transport = make_transport("socket")
    try:
        delivered = []
        transport.register("bob", _failing_sink(delivered, b"\x03"))
        for index in range(6):
            transport.deliver([_generic(bytes([index]))])
        with pytest.raises(_SinkFailure) as excinfo:
            transport.flush()
        where = excinfo.value.__cause__
        assert isinstance(where, FrameError)
        assert (where.sender, where.recipient, where.ordinal, where.kind) == (
            "alice", "bob", 3, MessageKind.GENERIC.value
        )
    finally:
        transport.close()


def test_burst_beyond_the_kernel_socket_buffer_neither_deadlocks_nor_reorders(transport):
    received = []
    transport.register("bob", received.append)
    chunk = 64 * 1024
    count = 72  # 4.5 MiB: more than loopback's send + receive buffers hold
    for index in range(count):
        transport.deliver([_generic(index.to_bytes(4, "big") * (chunk // 4))])
    transport.flush()
    assert [int.from_bytes(message.payload[:4], "big") for message in received] == list(
        range(count)
    )
    assert all(len(message.payload) == chunk for message in received)


@pytest.mark.parametrize("buffer_bytes", (1, 7, 64, 4096))
def test_socket_receiver_parses_frames_however_the_stream_is_cut(monkeypatch, buffer_bytes):
    """Frames that straddle reads, and frames longer than the read buffer."""
    monkeypatch.setattr(transport_module, "_SEND_BUFFER_BYTES", buffer_bytes)
    transport = make_transport("socket")
    try:
        received = []
        transport.register("bob", received.append)
        payloads = [bytes([index % 251]) * (index * 37 % 600) for index in range(120)]
        transport.deliver(_generic(payload) for payload in payloads)
        transport.flush()
        transport.deliver(_generic(payload) for payload in payloads[:5])
        transport.flush()
        assert [message.payload for message in received] == payloads + payloads[:5]
    finally:
        transport.close()


def test_close_with_unflushed_frames_returns_promptly():
    for name in TRANSPORT_NAMES:
        transport = make_conformance_transport(name)
        transport.register("bob", lambda message: None)
        for index in range(200):
            transport.deliver([_generic(bytes([index]))])
        started = time.perf_counter()
        transport.close()  # must neither block on the missing ack nor raise
        assert time.perf_counter() - started < 2.0, name
        transport.close()


def test_socket_registering_mid_burst_loses_nothing():
    transport = make_transport("socket")
    try:
        bob, carol = [], []
        transport.register("bob", bob.append)
        for index in range(500):
            transport.deliver([_generic(index.to_bytes(2, "big"))])
        transport.register("carol", carol.append)
        transport.deliver([_generic(b"c", recipient="carol")])
        transport.deliver([_generic(b"b")])
        transport.flush()
        assert [message.payload for message in bob] == [
            index.to_bytes(2, "big") for index in range(500)
        ] + [b"b"]
        assert [message.payload for message in carol] == [b"c"]
    finally:
        transport.close()


def test_socket_round_robin_senders_and_registrations_lose_and_reorder_nothing():
    """Six interleaved streams, each registering its recipient as it starts."""
    frames, stagger = 400, 50
    sinks = {f"home-{index}": [] for index in range(6)}
    transport = make_transport("socket")
    try:
        for step in range(frames + stagger * (len(sinks) - 1)):
            for offset, (name, received) in enumerate(sinks.items()):
                index = step - stagger * offset
                if index == 0:
                    transport.register(name, received.append)
                if 0 <= index < frames:
                    transport.deliver([_generic(index.to_bytes(2, "big"), recipient=name)])
                    if index % 97 == 0:
                        transport.flush()
        transport.flush()
    finally:
        transport.close()
    for name, received in sinks.items():
        assert [message.payload for message in received] == [
            index.to_bytes(2, "big") for index in range(frames)
        ], name


def test_socket_ack_wait_has_a_deadline(monkeypatch):
    monkeypatch.setattr(transport_module, "_ACK_TIMEOUT_S", 0.2)
    # The receiving end still dispatches, but never writes its ack.
    monkeypatch.setattr(transport_module, "send_frame", lambda sock, payload: None)
    transport = make_transport("socket")
    try:
        delivered = []
        transport.register("bob", delivered.append)
        transport.deliver([_generic(b"stuck")])
        with pytest.raises(AckTimeoutError) as excinfo:
            transport.flush()
        assert [message.payload for message in delivered] == [b"stuck"]
        for error in (excinfo.value, pickle.loads(pickle.dumps(excinfo.value))):
            assert error.fault == "ack-timeout"
            assert (error.sender, error.recipient, error.ordinal, error.kind) == (
                "alice", "bob", 0, MessageKind.GENERIC.value
            )
        # A late ack could be mistaken for the next one: the transport is shut.
        with pytest.raises(TransportError):
            transport.deliver([_generic(b"next")])
    finally:
        transport.close()


@pytest.mark.parametrize("reentry", ("flush", "deliver"))
def test_a_sink_cannot_reenter_the_socket_pump(reentry):
    """Refused at once and failed closed, not left to the ack deadline."""
    transport = make_transport("socket")
    try:
        delivered = []

        def sink(message):
            if message.payload == b"\x03":
                if reentry == "flush":
                    transport.flush()
                else:
                    transport.deliver([_generic(b"from the sink")])
            delivered.append(message.payload)

        transport.register("bob", sink)
        transport.deliver(_generic(bytes([index])) for index in range(6))
        started = time.perf_counter()
        with pytest.raises(TransportError, match="may not deliver or flush") as excinfo:
            transport.flush()
        assert time.perf_counter() - started < 2.0
        assert type(excinfo.value) is TransportError
        where = excinfo.value.__cause__
        assert isinstance(where, FrameError)
        assert (where.recipient, where.ordinal) == ("bob", 3)
        assert delivered == [bytes([index]) for index in range(3)]
        transport.deliver([_generic(b"after")])
        transport.flush()
        assert delivered[-1] == b"after" and len(delivered) == 4
    finally:
        transport.close()


_PARTIES = ("alice", "bob", "carol")
_KINDS = (MessageKind.GENERIC, MessageKind.PAYMENT, MessageKind.ENERGY_ROUTE)
_party = st.integers(min_value=0, max_value=len(_PARTIES) - 1)
_kind_filter = st.sampled_from((None,) + _KINDS)
_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("send"), _party, _party, st.sampled_from(_KINDS), st.binary(max_size=24)
        ),
        st.tuples(st.just("receive"), _party, _kind_filter),
        st.tuples(st.just("receive_all"), _party, _kind_filter),
        st.tuples(st.just("pending_count"), _party),
    ),
    max_size=40,
)


def _observe(transport_name, operations):
    """Run ``operations``; everything a party could observe, plus the stats."""

    def seen(message):
        return (message.sender, message.kind, message.payload, message.metadata)

    network = SimulatedNetwork(transport=make_conformance_transport(transport_name))
    try:
        parties = [network.register(party_id) for party_id in _PARTIES]
        observed = []
        for operation, who, *rest in operations:
            party = parties[who]
            if operation == "send":
                recipient, kind, payload = rest
                party.send(_PARTIES[recipient], kind, payload, {"n": len(observed)})
            elif operation == "receive":
                try:
                    observed.append(seen(party.receive(*rest)))
                except NetworkError:
                    observed.append("nothing to receive")
            elif operation == "receive_all":
                observed.append([seen(message) for message in party.receive_all(*rest)])
            else:
                observed.append(party.pending_count())
        leftovers = [[seen(message) for message in party.receive_all()] for party in parties]
        return observed, leftovers, network.stats.snapshot()
    finally:
        network.close()


@settings(max_examples=40, deadline=None)
@given(operations=_operations)
def test_any_interleaving_of_sends_and_reads_is_transport_invariant(operations):
    reference = _observe("local", operations)
    for name in TRANSPORT_NAMES[1:]:
        assert _observe(name, operations) == reference, name
