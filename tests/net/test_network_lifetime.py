"""A dropped window network is plain garbage, not cyclic garbage.

``Party`` points back at its network weakly, so reference counting alone
frees a closed window's network, its parties and every ``Message`` they
logged — no generation-2 sweep has to find them (a 64-home window used to
leave ~2 700 such objects behind).
"""

import gc
import weakref

import pytest

import helpers
from repro.core.pem import build_agents, states_for_window
from repro.data.loader import iter_windows
from repro.net import Message, SimulatedNetwork


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
        trace = engine.run_window(window, states, network=network)
        assert network.stats.total_messages > 50
        network.close()
        dropped = weakref.ref(network)
        logged = [
            weakref.ref(message)
            for party_id in network.party_ids
            for message in network.party(party_id).received_log
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
        party.pending_count()
