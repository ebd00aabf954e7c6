"""A run of messages is *k* sequential sends, failures included.

``SimulatedNetwork.deliver`` takes a run — a send, a broadcast, Protocol 4's
whole seller x buyer phase — and pulls it lazily through one accounting loop
and one framing loop.  Pinned here, as a property over random runs and a
random index *k* at which something goes wrong, on both transports: the
world after submitting the run is the world after sending its messages one
at a time and stopping at the first exception —

* ``TrafficStats`` (per party, by kind and its key order, totals);
* the exact sequence of message-hook calls, including a real
  ``ChaosController`` pool drain scheduled a few messages past the failure
  (it must not fire) and one scheduled before it (it must);
* every party's ``sent_log``, ``received_log`` and inbox, in order;
* message ids, and the next id a later message takes (a failed run has
  used none past the failure);
* the exception type and, for a ``FrameError``, its sender / recipient /
  ordinal / kind — from ``deliver`` and from the ``flush`` that follows;
* ``FaultyTransport``'s injected-fault ledger.

The failures: (a) the recipient's sink raises, (b) the recipient or the
sender is unknown, (c) ``FaultyTransport`` drops / duplicates / reorders /
corrupts frame *k*, (d) the transport is closed under the run (by a hook,
while the socket transport holds its lock).  And the mechanism leaves no
reference cycle: a network whose run failed is freed by reference counting.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosController, FaultPlan, FaultyTransport, PoolDrain
from repro.net import (
    Message,
    MessageKind,
    NetworkError,
    SimulatedNetwork,
    TransportError,
    make_transport,
)
from repro.net.transport import FrameError

TRANSPORTS = ("local", "socket")
_PARTIES = ("alice", "bob", "carol", "dave")
_KINDS = (MessageKind.ENERGY_ROUTE, MessageKind.PAYMENT, MessageKind.GENERIC)
FRAME_FAULTS = ("drop", "duplicate", "reorder", "corrupt")


class _SinkFailure(Exception):
    pass


class _FaultAt:
    """A fault plan, as ``FaultyTransport`` reads one, that hits one ordinal."""

    def __init__(self, fault, ordinal):
        self.fault, self.ordinal = fault, ordinal

    def frame_fault(self, window, attempt, ordinal, injected=0):
        return self.fault if ordinal == self.ordinal and not injected else None

    def corrupt_position(self, window, ordinal, frame_len):
        return (7 * ordinal + 3) % frame_len


class _NoPools:
    randomizer_pools = ()
    comparison_pools = ()


_specs = st.lists(
    st.tuples(
        st.integers(0, len(_PARTIES) - 1),
        st.integers(0, len(_PARTIES) - 1),
        st.sampled_from(_KINDS),
        st.integers(0, 40),  # payload padding
        st.one_of(
            st.just({}),
            st.fixed_dictionaries({"window": st.integers(0, 719), "kwh": st.floats(0, 50)}),
        ),
    ),
    min_size=1,
    max_size=12,
)


def _messages(specs, overrides=None):
    """The run, lazily: message *i* exists (and has an id) once it is pulled."""
    overrides = overrides or {}
    for index, (sender, recipient, kind, padding, metadata) in enumerate(specs):
        names = {"sender": _PARTIES[sender], "recipient": _PARTIES[recipient]}
        names.update(overrides.get(index, {}))
        payload = bytes([index]) + b"\xa5" * padding  # the first byte names the message
        yield Message(names["sender"], names["recipient"], kind, payload, dict(metadata))


class _World:
    """One network plus everything the equivalence compares."""

    def __init__(self, transport_name, fault=None, poisoned=None, close_at=None, drains=()):
        inner = make_transport(transport_name)
        self.faulty = FaultyTransport(inner, fault) if fault is not None else None
        self.network = SimulatedNetwork(transport=self.faulty or inner)
        # Burn one id so both worlds can speak of ids relative to their own start.
        self.base = Message("x", "y", MessageKind.GENERIC).message_id
        self.parties = [self.network.register(name) for name in _PARTIES]
        self.hooked = []
        self.network.add_message_hook(lambda message: self.hooked.append(self._seen(message)))
        self.controller = ChaosController(
            FaultPlan(pool_drains=tuple(PoolDrain(window=0, after_messages=n) for n in drains)),
            window=0,
            attempt=0,
            keyring=_NoPools(),
        )
        self.network.add_message_hook(self.controller._on_message)
        if close_at is not None:
            self.network.add_message_hook(
                lambda message: message.payload[0] == close_at and self.network.close()
            )
        if poisoned is not None:
            sinks = inner._sinks
            for name, sink in list(sinks.items()):
                sinks[name] = self._poisoned_sink(sink, poisoned)
        self.errors = []

    @staticmethod
    def _poisoned_sink(sink, poisoned):
        def poisoned_sink(message):
            if message.payload[0] == poisoned:
                raise _SinkFailure(f"sink rejected message {poisoned}")
            sink(message)

        return poisoned_sink

    def _seen(self, message):
        return (
            message.message_id - self.base,
            message.sender,
            message.recipient,
            message.kind,
            message.payload,
            message.metadata,
        )

    def attempt(self, action):
        """Run ``action``; what it raised, reduced to what the equivalence compares."""
        try:
            action()
        except Exception as exc:
            described = [type(exc).__name__, str(exc)]
            for error in (exc, exc.__cause__):
                if isinstance(error, FrameError):
                    described.append((error.sender, error.recipient, error.ordinal, error.kind))
            self.errors.append(described)
            return True
        self.errors.append(None)
        return False

    def state(self):
        # deliver's outcome is recorded; now the barrier, then a clean one.
        self.attempt(self.network.flush)
        self.attempt(self.network.flush)
        stats = self.network.stats
        observed = {
            "errors": self.errors,
            "per_party": stats.snapshot(),
            "bytes_by_kind": list(stats.bytes_by_kind.items()),
            "totals": (stats.total_messages, stats.total_bytes),
            "hooked": self.hooked,
            "drains": [fault.detail for fault in self.controller.injected],
            "faults": list(self.faulty.injected) if self.faulty else [],
            "next_id": Message("x", "y", MessageKind.GENERIC).message_id - self.base,
        }
        for party in self.parties:
            observed[party.party_id] = {
                "sent": [self._seen(m) for m in party.sent_log],
                "received": [self._seen(m) for m in party.received_log],
                "inbox": [self._seen(m) for m in party._inbox],
            }
        self.network.close()
        return observed


def _as_one_run(world, specs, overrides=None):
    world.attempt(lambda: world.network.deliver(_messages(specs, overrides)))
    return world.state()


def _one_send_at_a_time(world, specs, overrides=None):
    for message in _messages(specs, overrides):
        if world.attempt(lambda: world.network.deliver((message,))):
            break
    return world.state()


def _assert_equivalent(transport_name, specs, overrides=None, **world_options):
    run = _as_one_run(_World(transport_name, **world_options), specs, overrides)
    reference = _one_send_at_a_time(_World(transport_name, **world_options), specs, overrides)
    # The reference recorded one outcome per send; a run has one for them all.
    sends = reference["errors"][:-2]
    reference["errors"] = [next((e for e in sends if e), None)] + reference["errors"][-2:]
    assert run == reference
    return run


def _sent_count(state):
    return sum(len(state[name]["sent"]) for name in _PARTIES)


# -- the property, one failure mode at a time --------------------------------------


@pytest.mark.parametrize("transport_name", TRANSPORTS)
@settings(max_examples=40, deadline=None)
@given(specs=_specs)
def test_a_clean_run_is_its_sends_in_order(transport_name, specs):
    count = len(specs)
    state = _assert_equivalent(transport_name, specs, drains=sorted({1, count, count + 1}))
    assert state["errors"] == [None, None, None]
    assert state["totals"][0] == len(specs) == len(state["hooked"])
    assert [seen[0] for seen in state["hooked"]] == list(range(1, len(specs) + 1))
    assert len(state["drains"]) == len({1, count})  # not the one past the end


@pytest.mark.parametrize("transport_name", TRANSPORTS)
@settings(max_examples=40, deadline=None)
@given(specs=_specs, data=st.data())
def test_sink_failure_at_k(transport_name, specs, data):
    k = data.draw(st.integers(0, len(specs) - 1))
    state = _assert_equivalent(transport_name, specs, poisoned=k, drains=(k + 1, k + 4))
    raised = [error for error in state["errors"] if error]
    assert len(raised) == 1 and raised[0][0] == "_SinkFailure"
    received = [seen[4][0] for name in _PARTIES for seen in state[name]["received"]]
    assert sorted(received) == list(range(k))  # fail closed: nothing from k on
    if transport_name == "local":
        # Raised out of deliver at k: k accounted and hooked, not logged as sent.
        assert state["totals"][0] == k + 1 == len(state["hooked"])
        assert _sent_count(state) == k
        assert state["next_id"] == k + 2
        assert len(state["drains"]) == 1  # after k + 1 messages; the k + 4 one never fired
    else:
        # Deferred to the flush, which names the frame.
        assert state["errors"][0] is None and raised[0][2][2] == k
        assert state["totals"][0] == len(specs)


@pytest.mark.parametrize("transport_name", TRANSPORTS)
@pytest.mark.parametrize("who", ("sender", "recipient"))
@settings(max_examples=30, deadline=None)
@given(specs=_specs, data=st.data())
def test_unknown_party_at_k(transport_name, who, specs, data):
    k = data.draw(st.integers(0, len(specs) - 1))
    state = _assert_equivalent(
        transport_name, specs, overrides={k: {who: "ghost"}}, drains=(max(k, 1), k + 3)
    )
    assert state["errors"] == [["NetworkError", f"unknown {who} 'ghost'"], None, None]
    # Refused before it was accounted or shown to a hook.
    assert state["totals"][0] == k == len(state["hooked"]) == _sent_count(state)
    assert state["next_id"] == k + 2  # message k existed; k + 1 never did
    assert len(state["drains"]) == (1 if k else 0)


@pytest.mark.parametrize("transport_name", TRANSPORTS)
@pytest.mark.parametrize("fault", FRAME_FAULTS)
@settings(max_examples=30, deadline=None)
@given(specs=_specs, data=st.data())
def test_frame_fault_at_k(transport_name, fault, specs, data):
    k = data.draw(st.integers(0, len(specs) - 1))
    state = _assert_equivalent(
        transport_name, specs, fault=_FaultAt(fault, k), drains=(k + 1, k + 4)
    )
    (ledger,) = state["faults"]
    assert (ledger.kind, ledger.ordinal) == (fault, k)
    last = k == len(specs) - 1
    if fault == "reorder" and last:
        assert state["errors"] == [None, None, None]  # held back, nothing overtook it
    else:
        error = state["errors"][0]
        assert error[0] == f"Frame{fault.capitalize() if fault != 'corrupt' else 'Corruption'}Error"
        assert error[2][2] == k
        assert state["errors"][1:] == [None, None]
    received = sorted(seen[4][0] for name in _PARTIES for seen in state[name]["received"])
    expected = {
        "drop": list(range(k)),
        "corrupt": list(range(k)),
        "duplicate": list(range(k + 1)),
        "reorder": list(range(k)) + ([] if last else [k + 1]),
    }[fault]
    assert received == expected
    pulled = k + 1 if fault != "reorder" or last else k + 2
    assert state["totals"][0] == pulled == len(state["hooked"])
    assert state["next_id"] == pulled + 1
    # Logged as sent: what deliver returned normally for (a held frame counts).
    assert _sent_count(state) == (k + 1 if fault == "reorder" else k)
    assert len(state["drains"]) == 1  # k + 4 is always past the last message pulled


@pytest.mark.parametrize("transport_name", TRANSPORTS)
@settings(max_examples=30, deadline=None)
@given(specs=_specs, data=st.data())
def test_transport_closed_under_the_run_at_k(transport_name, specs, data):
    """A hook closes the network as it sees message k (re-entering the socket's lock)."""
    k = data.draw(st.integers(0, len(specs) - 1))
    state = _assert_equivalent(transport_name, specs, close_at=k, drains=(k + 1, k + 4))
    if transport_name == "local":
        assert state["errors"] == [None, None, None]  # nothing to close in-process
        return
    assert state["errors"][0] == ["TransportError", "transport is closed"]
    assert state["totals"][0] == k + 1 == len(state["hooked"])
    assert _sent_count(state) == k
    assert len(state["drains"]) == 1


# -- Party.send / Party.broadcast reach the same loop -------------------------------


@pytest.mark.parametrize("transport_name", TRANSPORTS)
@pytest.mark.parametrize("ghost_at", (None, 0, 2, 4))
def test_a_broadcast_is_its_sends_in_order(transport_name, ghost_at):
    audience = ["bob", "alice", "carol", "dave", "bob"]  # self skipped, a repeat kept
    if ghost_at is not None:
        audience[ghost_at] = "ghost"
    metadata = {"window": 9, "price": 0.125}

    def broadcast(world):
        alice = world.parties[0]
        returned = []
        world.attempt(
            lambda: returned.extend(
                alice.broadcast(audience, MessageKind.PRICE_BROADCAST, b"\x00p", metadata)
            )
        )
        return returned, world.state()

    def sends(world):
        alice = world.parties[0]
        returned = []
        for recipient in audience:
            if recipient == "alice":
                continue
            if world.attempt(
                lambda: returned.append(
                    alice.send(recipient, MessageKind.PRICE_BROADCAST, b"\x00p", metadata)
                )
            ):
                break
        return returned, world.state()

    returned, run = broadcast(_World(transport_name))
    sent, reference = sends(_World(transport_name))
    outcomes = reference["errors"][:-2]
    reference["errors"] = [next((e for e in outcomes if e), None)] + reference["errors"][-2:]
    assert run == reference
    if ghost_at is None:
        assert [m.recipient for m in returned] == ["bob", "carol", "dave", "bob"]
        assert [m.recipient for m in returned] == [m.recipient for m in sent]
    else:
        assert returned == [] and run["errors"][0][0] == "NetworkError"


def test_an_empty_run_touches_nothing_even_on_a_closed_transport():
    for transport_name in TRANSPORTS:
        world = _World(transport_name)
        world.network.close()
        world.network.deliver(())
        world.network.deliver(iter(()))
        assert world.parties[0].broadcast(["alice"], MessageKind.GENERIC) == []
        assert world.network.stats.total_messages == 0 and world.hooked == []


def test_a_hook_may_flush_and_send_while_the_socket_run_is_being_pulled():
    """The run is pulled under the transport's lock, which is re-entrant."""
    network = SimulatedNetwork(transport=make_transport("socket"))
    try:
        alice, bob = network.register("alice"), network.register("bob")

        def nosy(message):
            if message.kind is MessageKind.GENERIC and message.payload == b"\x01":
                network.flush()
                assert [m.payload for m in bob.received_log] == [b"\x00"]
                bob.send("alice", MessageKind.PAYMENT, b"from the hook")

        network.add_message_hook(nosy)
        network.deliver(
            Message("alice", "bob", MessageKind.GENERIC, bytes([index])) for index in range(3)
        )
        assert [m.payload for m in bob.receive_all()] == [b"\x00", b"\x01", b"\x02"]
        assert [m.payload for m in alice.receive_all()] == [b"from the hook"]
        assert network.stats.total_messages == 4
    finally:
        network.close()


# -- no reference cycle --------------------------------------------------------------


def _fail_a_run(transport_name, mode):
    """A network whose 8-message run failed at message 5, and what was raised."""
    inner = make_transport(transport_name)
    transport = FaultyTransport(inner, _FaultAt("drop", 5)) if mode == "drop" else inner
    network = SimulatedNetwork(transport=transport)
    for name in _PARTIES:
        network.register(name)
    if mode == "sink":
        inner._sinks["bob"] = _World._poisoned_sink(inner._sinks["bob"], 5)
    overrides = {5: {"recipient": "ghost"}} if mode == "ghost" else None
    specs = [(0, 1, MessageKind.PAYMENT, 4, {"window": 1})] * 8
    try:
        network.deliver(_messages(specs, overrides))
    except (NetworkError, TransportError, _SinkFailure) as exc:
        raised = type(exc).__name__
    else:
        raised = None
    return network, raised


@pytest.mark.parametrize(
    "transport_name, mode, expected",
    [
        ("local", "sink", "_SinkFailure"),
        ("local", "ghost", "NetworkError"),
        ("socket", "ghost", "NetworkError"),
        ("local", "drop", "FrameDropError"),
        ("socket", "drop", "FrameDropError"),
        ("local", "clean", None),
        ("socket", "clean", None),
    ],
)
def test_a_failed_run_leaves_no_reference_cycle(transport_name, mode, expected):
    gc.collect()
    gc.disable()
    try:
        network, raised = _fail_a_run(transport_name, mode)
        assert raised == expected
        assert network.stats.total_messages == {"ghost": 5, "clean": 8}.get(mode, 6)
        network.close()
        dropped = weakref.ref(network)
        logged = [weakref.ref(m) for m in network.party("alice").sent_log]
        assert len(logged) == (8 if mode == "clean" else 5)
        del network
        assert dropped() is None
        assert all(message() is None for message in logged)
    finally:
        gc.enable()
