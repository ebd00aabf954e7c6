"""A dropped window network is plain garbage, not cyclic garbage.

``Party`` points back at its network weakly, so reference counting alone
frees a closed window's network, its parties and every ``Message`` sent
through it — no generation-2 sweep has to find them (a 64-home window used
to leave ~2 700 such objects behind).  The network keeps no message log: a
sender-side message lives until the transport has framed it, and a
received one until its recipient drains it or the network goes.
"""

import gc
import weakref

import pytest

import helpers
from repro.core.pem import build_agents, states_for_window
from repro.data.loader import iter_windows
from repro.net import Message, MessageKind, SimulatedNetwork, make_transport


def _window_states(market, window):
    agents = build_agents(market.dataset)
    for window_slice in iter_windows(market.dataset, stop=window + 1):
        states = states_for_window(agents, window_slice)
    return states


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_closed_window_network_is_freed_without_the_cycle_collector(transport):
    market = helpers.tiny_market(transport=transport, session_scope="day")
    window = market.windows[0]
    states = _window_states(market, window)
    engine = market.engine()
    gc.collect()
    gc.disable()
    try:
        network = engine.build_network()
        # Every message as the network saw it (the sender's copy on a socket).
        logged = []
        network.add_message_hook(lambda message: logged.append(weakref.ref(message)))
        trace = engine.run_window(window, states, network=network)
        assert network.stats.total_messages > 50 and len(logged) == network.stats.total_messages
        network.close()
        dropped = weakref.ref(network)
        # ... and every message still waiting in an inbox (the recipient's copy).
        logged += [
            weakref.ref(message)
            for party in network._parties.values()
            for message in party._inbox
        ]
        del network
        assert dropped() is None
        assert logged and all(message() is None for message in logged)
        # And the collector, when it does run, finds no message to free.
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            unreachable = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not any(isinstance(obj, Message) for obj in unreachable)
        assert trace.result is not None
    finally:
        gc.enable()


def test_party_that_outlives_its_network_fails_loudly():
    party = SimulatedNetwork().register("alice")
    with pytest.raises(ReferenceError):
        party.receive_all()


def test_a_sent_message_is_freed_once_the_socket_transport_framed_it():
    """Nothing on the sending side keeps a delivered message alive.

    With the collector off, reference counting alone must free the
    sender's copy by the time ``deliver`` returns, before any flush; the
    recipient still gets its own decoded copy at the flush.
    """
    network = SimulatedNetwork(transport=make_transport("socket"))
    try:
        network.register("alice")
        bob = network.register("bob")
        seen = []
        network.add_message_hook(lambda message: seen.append(weakref.ref(message)))
        gc.collect()
        gc.disable()
        try:
            network.deliver(
                Message("alice", "bob", kind, bytes(8), {"window": 3})
                for kind in (MessageKind.ENERGY_ROUTE, MessageKind.PAYMENT)
            )
            assert len(seen) == 2 and all(message() is None for message in seen)
            received = bob.receive_all()
            assert [m.kind for m in received] == [MessageKind.ENERGY_ROUTE, MessageKind.PAYMENT]
        finally:
            gc.enable()
    finally:
        network.close()
