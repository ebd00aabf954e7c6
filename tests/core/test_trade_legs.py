"""Trade legs on the wire: one fixed-width amount, one shared metadata.

Protocol 4 ends with two legs per trade: the seller's ``ENERGY_ROUTE`` to
the buyer and the buyer's ``PAYMENT`` back.  Each leg's payload is its
trade's exact amount as one big-endian double, and its metadata is the
window alone, so a leg's size — accounted and on the wire — is a function
of the window, never of the amount:

* a property over drawn windows, markets and prices: every leg unpacks to
  exactly its ``Trade``'s energy or payment, in trade order, carries
  ``{"window": w}``, and sizes to ``8 + len('{"window": w}') + 64``;
* a wire observer on the socket transport: two days with the same pairs
  but different amounts put identical leg frame lengths on the wire.
"""

import json
import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PAPER_PARAMETERS
from repro.core.agent import AgentWindowState
from repro.core.coalition import form_coalitions
from repro.core.market import MarketCase
from repro.core.protocols import ProtocolConfig, ProtocolContext
from repro.core.protocols.distribution import run_private_distribution
from repro.net import Message, MessageKind, SimulatedNetwork, make_transport
from repro.net.transport import SocketTransport

LEG_KINDS = (MessageKind.ENERGY_ROUTE, MessageKind.PAYMENT)
_LEG_INDICES = {list(MessageKind).index(kind) for kind in LEG_KINDS}


def _state(agent_id, window, net):
    return AgentWindowState(
        agent_id=agent_id,
        window=window,
        generation_kwh=max(net, 0.0),
        load_kwh=max(-net, 0.0),
        battery_kwh=0.0,
        battery_loss_coefficient=0.9,
        preference_k=150.0,
    )


def _distribute(window, surpluses, demands, price, transport="local"):
    """Protocol 4 over one window; the clearing and every message a hook saw."""
    states = [_state(f"s{i}", window, net) for i, net in enumerate(surpluses)]
    states += [_state(f"b{i}", window, -net) for i, net in enumerate(demands)]
    network = SimulatedNetwork(transport=make_transport(transport))
    seen = []
    network.add_message_hook(seen.append)
    context = ProtocolContext(
        coalitions=form_coalitions(window, states),
        network=network,
        config=ProtocolConfig(key_size=128, key_pool_size=2, seed=5),
        params=PAPER_PARAMETERS,
        rng=random.Random(5),
    )
    case = MarketCase.GENERAL if sum(surpluses) < sum(demands) else MarketCase.EXTREME
    try:
        result = run_private_distribution(context, case, price)
        network.flush()
    finally:
        network.close()
    return result.clearing, seen


_amounts = st.lists(st.floats(1e-4, 20.0), min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(
    window=st.integers(0, 100_000),
    surpluses=_amounts,
    demands=_amounts,
    price=st.floats(90.0, 110.0),
)
def test_every_leg_carries_its_trades_exact_amount_at_a_fixed_size(
    window, surpluses, demands, price
):
    clearing, seen = _distribute(window, surpluses, demands, price)
    legs = [m for m in seen if m.kind in LEG_KINDS]
    assert clearing.trades and len(legs) == 2 * len(clearing.trades)
    size = 8 + len(json.dumps({"window": window})) + 64
    for trade, route, payment in zip(clearing.trades, legs[::2], legs[1::2]):
        assert (route.kind, route.sender, route.recipient) == (
            MessageKind.ENERGY_ROUTE, trade.seller_id, trade.buyer_id
        )  # fmt: skip
        assert (payment.kind, payment.sender, payment.recipient) == (
            MessageKind.PAYMENT, trade.buyer_id, trade.seller_id
        )  # fmt: skip
        assert struct.unpack(">d", route.payload) == (trade.energy_kwh,)
        assert struct.unpack(">d", payment.payload) == (trade.payment,)
    for leg in legs:
        assert leg.metadata == {"window": window}
        assert leg.byte_size() == size
        # The receiver's copy reads the same amount back.
        assert Message.decode(leg.encode()).payload == leg.payload


def _leg_frame_lengths(monkeypatch, scale, price):
    """Protocol 4 over the socket transport, as a wire observer sees it.

    The observer reads each frame off the receiving socket and keeps the
    lengths of the legs (the kind index is the frame's second byte).
    """
    frames = []
    dispatch = SocketTransport._dispatch

    def observed(transport, frame, ordinal):
        frames.append(frame)
        return dispatch(transport, frame, ordinal)

    monkeypatch.setattr(SocketTransport, "_dispatch", observed)
    surpluses = [scale * net for net in (0.08, 0.12, 0.05)]
    demands = [scale * net for net in (0.30, 0.25, 0.10, 0.05)]
    clearing, _ = _distribute(412, surpluses, demands, price, transport="socket")
    legs = [frame for frame in frames if frame[1] in _LEG_INDICES]
    assert len(legs) == 2 * len(clearing.trades) == 24
    return [len(frame) for frame in legs], legs


def test_legs_of_different_amounts_have_identical_frame_lengths(monkeypatch):
    lengths, legs = _leg_frame_lengths(monkeypatch, scale=1.0, price=95.0)
    other_lengths, other_legs = _leg_frame_lengths(monkeypatch, scale=7.31, price=104.123456789)
    assert lengths == other_lengths
    # ... while every amount differs: only the 8 payload bytes do.
    assert all(a[-8:] != b[-8:] for a, b in zip(legs, other_legs))
