"""Unit tests for protocol messages."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Message, MessageKind


def test_byte_size_includes_payload_and_header():
    empty = Message(sender="a", recipient="b", kind=MessageKind.GENERIC)
    with_payload = Message(sender="a", recipient="b", kind=MessageKind.GENERIC, payload=b"x" * 100)
    assert empty.byte_size() == 64
    assert with_payload.byte_size() == 164


def test_byte_size_includes_metadata():
    message = Message(
        sender="a", recipient="b", kind=MessageKind.PRICE_BROADCAST, metadata={"price": 97.5}
    )
    assert message.byte_size() > 64


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(
    payload=st.binary(max_size=64),
    metadata=st.dictionaries(st.text(max_size=8), _json_values, max_size=5),
)
def test_byte_size_matches_the_json_dumps_definition(payload, metadata):
    """Accounted bytes are pinned to ``json.dumps(..., sort_keys=True)``.

    ``byte_size`` encodes through a shared module-level encoder; whatever
    the metadata, it must charge what the spelled-out expression charges.
    """
    message = Message(
        sender="a", recipient="b", kind=MessageKind.GENERIC, payload=payload, metadata=metadata
    )
    metadata_bytes = len(json.dumps(metadata, sort_keys=True).encode()) if metadata else 0
    assert message.byte_size() == len(payload) + metadata_bytes + 64


def test_message_ids_increase():
    first = Message(sender="a", recipient="b", kind=MessageKind.GENERIC)
    second = Message(sender="a", recipient="b", kind=MessageKind.GENERIC)
    assert second.message_id > first.message_id


def test_message_kinds_cover_protocol_phases():
    values = {kind.value for kind in MessageKind}
    for expected in (
        "market_aggregate",
        "pricing_aggregate",
        "demand_aggregate",
        "ratio_broadcast",
        "energy_route",
        "payment",
        "chain_block",
    ):
        assert expected in values
