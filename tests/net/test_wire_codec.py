"""The binary ``Message`` frame: round trips, fuzzing, accounting, live transport.

``Message.encode`` / ``Message.decode`` are the only (de)serializers on
the message sockets (``docs/WIRE.md``).  Pinned here:

* ``decode(encode(m)) == m`` and ``encode(decode(f)) == f`` over every
  kind and the metadata shapes the protocols send;
* *any* byte string either decodes or raises ``FrameError`` — never
  another exception, never an allocation beyond the frame;
* ``byte_size()`` keeps its spelled-out definition, takes its metadata
  length from the bytes ``encode()`` ships (encoded once per message), and
  is an upper bound on the real frame for every message of a 64-home
  socket window;
* on a live ``SocketTransport`` a corrupted or over-long frame surfaces as
  a typed error naming the frame, and the supervisor retries it as
  ``transient_transport``.
"""

import collections
import json
import socket
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from repro.chaos import FaultPlan
from repro.core import PAPER_PARAMETERS, PlainTradingEngine
from repro.core.pem import build_agents, states_for_window
from repro.core.protocols import PrivateTradingEngine, ProtocolConfig
from repro.data import TraceConfig, generate_dataset
from repro.data.loader import iter_windows
from repro.net import Message, MessageKind, SimulatedNetwork, TransportError, make_transport
from repro.net import message as message_module
from repro.net import transport as transport_module
from repro.net.message import WIRE_HEADER_FORMAT, WIRE_VERSION
from repro.net.transport import (
    MAX_FRAME_BYTES,
    ConnectionLostError,
    FrameError,
    recv_frame,
    send_frame,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
_HEADER = struct.Struct(WIRE_HEADER_FORMAT)
_LENGTH_PREFIX = 4

# The flat shapes the protocols put in metadata (window, hop, scale, price,
# kwh, amount, final, general_market, role): str keys, scalar values.
_scalars = (
    st.integers(min_value=-(2**63), max_value=2**63)
    | st.integers(min_value=10**40, max_value=10**60)  # a big-int ``scale``
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.booleans()
    | st.text(max_size=12)
)
_metadata = st.dictionaries(st.text(max_size=10), _scalars, max_size=5)
_party_ids = st.text(max_size=12)
_messages = st.builds(
    Message,
    sender=_party_ids,
    recipient=_party_ids,
    kind=st.sampled_from(list(MessageKind)),
    payload=st.binary(max_size=256),
    metadata=_metadata,
    message_id=st.integers(min_value=0, max_value=2**64 - 1),
)


#: What ``round(x, 9)`` / ``round(x, 6)`` can return at the edges of the
#: float range, signed zeros, and the non-finite values ``json`` spells out.
_EDGE_FLOATS = (
    0.0, -0.0, 1e-09, 1e-06, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e22, 123456.789012,
    0.1 + 0.2, float("inf"), float("-inf"), float("nan"),
)
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**70), max_value=10**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(_EDGE_FLOATS)
    | st.floats(allow_nan=False, allow_infinity=False).map(lambda x: round(x, 9))
    | st.floats(allow_nan=False, allow_infinity=False).map(lambda x: round(x, 6))
    | st.text(max_size=12)  # non-ASCII, quotes, control characters, surrogates' neighbours
)
_json_values = st.recursive(
    _json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_any_metadata = st.dictionaries(st.text(max_size=8), _json_values, max_size=5)


def _spelled_out_size(message):
    metadata = message.metadata
    metadata_bytes = len(json.dumps(metadata, sort_keys=True).encode()) if metadata else 0
    return len(message.payload) + metadata_bytes + 64


# -- round trips ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(message=_messages)
def test_decode_inverts_encode_and_encode_inverts_decode(message):
    frame = message.encode()
    decoded = Message.decode(frame)
    assert decoded == message
    assert decoded.message_id == message.message_id
    assert type(decoded.kind) is MessageKind
    assert decoded.encode() == frame
    assert decoded.byte_size() == message.byte_size() == _spelled_out_size(message)


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("payload_size", (0, 64 * 1024))
def test_every_kind_round_trips_with_empty_metadata_and_edge_payloads(kind, payload_size):
    message = Message("alice", "bob", kind, payload=b"\xa5" * payload_size)
    frame = message.encode()
    assert len(frame) == _HEADER.size + len("alice") + len("bob") + payload_size
    decoded = Message.decode(frame)
    assert decoded == message and decoded.metadata == {}


def test_frame_layout_is_the_documented_one():
    message = Message(
        "alice", "bob", MessageKind.PAYMENT, payload=b"pay", metadata={"b": 1, "a": 2}, message_id=77
    )
    frame = message.encode()
    assert _HEADER.unpack_from(frame) == (
        WIRE_VERSION, list(MessageKind).index(MessageKind.PAYMENT), 77, 5, 3, len(b'{"a": 2, "b": 1}')
    )
    assert frame[_HEADER.size:] == b'alicebob{"a": 2, "b": 1}pay'


def test_fields_that_do_not_fit_the_header_are_frame_errors():
    with pytest.raises(FrameError) as excinfo:
        Message("a" * 70_000, "bob", MessageKind.GENERIC).encode()
    assert excinfo.value.recipient == "bob"
    with pytest.raises(FrameError):
        Message("alice", "bob", MessageKind.GENERIC, message_id=-1).encode()
    with pytest.raises(FrameError):
        Message("alice", "\udc80", MessageKind.GENERIC).encode()


# -- decode rejects everything else with FrameError -----------------------------


def _frame(version=WIRE_VERSION, kind=0, sender=b"alice", recipient=b"bob", metadata=b"", tail=b""):
    header = _HEADER.pack(version, kind, 1, len(sender), len(recipient), len(metadata))
    return header + sender + recipient + metadata + tail


@pytest.mark.parametrize(
    "frame, detail",
    [
        (b"", "shorter than the wire header"),
        (_frame()[: _HEADER.size - 1], "shorter than the wire header"),
        (_frame(version=WIRE_VERSION + 1), "unknown wire version"),
        (_frame(kind=len(MessageKind)), "unknown message kind index"),
        (_frame(kind=255), "unknown message kind index"),
        (_frame(metadata=b'{"a": 1}')[:-3], "exceed"),
        (_HEADER.pack(WIRE_VERSION, 0, 1, 0xFFFF, 0xFFFF, 0xFFFFFFFF), "exceed"),
        (_frame(sender=b"\xff\xfe"), "not UTF-8"),
        (_frame(metadata=b"[1, 2]"), "not a JSON object"),
        (_frame(metadata=b"17"), "not a JSON object"),
        (_frame(metadata=b'{"a": '), "not a JSON object"),
        (_frame(metadata=b"\xff{}"), "not a JSON object"),
        (_frame(metadata=b"[" * 100_000), "not a JSON object"),
        (_frame(metadata=b'{"n": ' + b"9" * 5000 + b"}"), "not a JSON object"),
        # Exactly one object and nothing around it: ``json.loads`` would
        # skip the padding, the wire codec does not.
        (_frame(metadata=b' {"a": 1}'), "not a JSON object"),
        (_frame(metadata=b'{"a": 1} '), "not a JSON object"),
        (_frame(metadata=b'\n{"a": 1}\n'), "not a JSON object"),
        (_frame(metadata=b'{"a": 1}{"b": 2}'), "not a JSON object"),
        (_frame(metadata=b'{"a": 1}x'), "not a JSON object"),
        (_frame(metadata=b'{"a": 1}\x00'), "not a JSON object"),
        (_frame(metadata=b"   "), "not a JSON object"),
        (_frame(metadata=b"nul"), "not a JSON object"),
    ],
)
def test_malformed_frames_raise_frame_error(frame, detail):
    with pytest.raises(FrameError, match=detail):
        Message.decode(frame)


def test_decode_error_carries_the_fields_parsed_so_far():
    with pytest.raises(FrameError) as excinfo:
        Message.decode(_frame(kind=list(MessageKind).index(MessageKind.PAYMENT), metadata=b"nope"))
    error = excinfo.value
    assert (error.sender, error.recipient, error.kind) == ("alice", "bob", "payment")
    assert error.ordinal is None  # the transport knows the ordinal, the codec does not


def _decodes_or_frame_error(frame):
    try:
        decoded = Message.decode(frame)
    except FrameError:
        return None
    # Anything accepted is a well-formed message whose own frame is canonical.
    assert isinstance(decoded.metadata, dict)
    canonical = decoded.encode()
    assert Message.decode(canonical).encode() == canonical
    return decoded


@settings(max_examples=500, deadline=None)
@given(frame=st.binary(max_size=200))
def test_arbitrary_bytes_decode_or_raise_frame_error(frame):
    _decodes_or_frame_error(frame)


@settings(max_examples=500, deadline=None)
@given(
    tail=st.binary(max_size=120),
    kind=st.integers(0, 255),
    lengths=st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 80)),
)
def test_arbitrary_bytes_behind_a_plausible_header_decode_or_raise_frame_error(
    tail, kind, lengths
):
    _decodes_or_frame_error(_HEADER.pack(WIRE_VERSION, kind, 9, *lengths) + tail)


@settings(max_examples=300, deadline=None)
@given(message=_messages, data=st.data())
def test_mutated_valid_frames_decode_or_raise_frame_error(message, data):
    frame = message.encode()
    position = data.draw(st.integers(0, len(frame) - 1))
    flipped = bytearray(frame)
    flipped[position] ^= data.draw(st.integers(1, 255))
    _decodes_or_frame_error(bytes(flipped))
    _decodes_or_frame_error(frame[:position])  # truncation


@settings(max_examples=300, deadline=None)
@given(
    metadata=_any_metadata.filter(bool),
    before=st.sampled_from((b"", b" ", b"\n", b"\t \r")),
    after=st.sampled_from((b"", b" ", b"\n\n", b"x", b"{}", b"\x00", b",", b"]")),
    tail=st.binary(max_size=16),
)
def test_padded_or_trailing_garbage_metadata_is_a_frame_error_never_a_message(
    metadata, before, after, tail
):
    """Only the bare object decodes; whitespace inside it is still JSON."""
    text = json.dumps(metadata, sort_keys=True, allow_nan=True).encode()
    decoded = _decodes_or_frame_error(_frame(metadata=before + text + after, tail=tail))
    if before or after:
        assert decoded is None
    else:
        assert decoded is not None and decoded.payload == tail
        assert message_module.encode_metadata(decoded.metadata) == message_module.encode_metadata(
            metadata
        )
    spaced = json.dumps(metadata, sort_keys=True, indent=1).encode()
    assert _decodes_or_frame_error(_frame(metadata=spaced, tail=tail)) is not None


def test_decode_allocates_no_more_than_the_frame_holds():
    """A header that claims gigabytes costs nothing: lengths are checked first."""
    lying = _HEADER.pack(WIRE_VERSION, 0, 1, 0xFFFF, 0xFFFF, 0xFFFFFFFF) + b"x" * 64
    big = Message("alice", "bob", MessageKind.GENERIC, payload=b"p" * 65536, metadata={"w": 1})
    for frame in (lying, big.encode(), big.encode()[:-1000]):
        tracemalloc.start()
        try:
            try:
                Message.decode(frame)
            except FrameError:
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(frame) + 16 * 1024


# -- accounting: encoded once, and an upper bound on the wire --------------------


def _count_metadata_encodings(monkeypatch):
    """Spy on ``encode_metadata``, the one place metadata becomes bytes."""
    calls = []
    real = message_module.encode_metadata

    def spy(metadata):
        calls.append(metadata)
        return real(metadata)

    monkeypatch.setattr(message_module, "encode_metadata", spy)
    return calls


def test_metadata_is_encoded_exactly_once_per_sent_message_on_the_socket_path(monkeypatch):
    calls = _count_metadata_encodings(monkeypatch)
    network = SimulatedNetwork(transport=make_transport("socket"))
    try:
        alice, bob = network.register("alice"), network.register("bob")
        sent = [
            alice.send("bob", MessageKind.PAYMENT, payload=b"p", metadata={"window": index})
            for index in range(25)
        ]
        sent.append(alice.send("bob", MessageKind.GENERIC))  # no metadata: nothing to encode
        received = bob.receive_all()
    finally:
        network.close()
    assert [m.metadata for m in received] == [m.metadata for m in sent]
    assert len(calls) == 25
    # Sizing and framing again reuse the kept bytes.
    assert [m.byte_size() for m in sent] == [_spelled_out_size(m) for m in sent]
    assert all(m.encode() for m in sent)
    assert len(calls) == 25


@pytest.mark.parametrize("transport_name", ("local", "socket"))
@pytest.mark.parametrize("audience", (1, 2, 40))
def test_a_broadcast_encodes_its_metadata_once_however_many_recipients(
    monkeypatch, transport_name, audience
):
    calls = _count_metadata_encodings(monkeypatch)
    network = SimulatedNetwork(transport=make_transport(transport_name))
    try:
        alice = network.register("alice")
        others = [network.register(f"home-{index}") for index in range(audience)]
        metadata = {"window": 3, "price": 0.25}
        sent = alice.broadcast(
            ["alice"] + [party.party_id for party in others],
            MessageKind.PRICE_BROADCAST,
            payload=b"p",
            metadata=metadata,
        )
        received = [party.receive() for party in others]
    finally:
        network.close()
    assert calls == [metadata]
    assert [m.recipient for m in sent] == [party.party_id for party in others]
    assert sent == alice.sent_log and [m.metadata for m in received] == [metadata] * audience
    assert len({m.message_id for m in sent}) == audience
    assert [m.byte_size() for m in sent] == [_spelled_out_size(m) for m in sent]
    assert network.stats.total_bytes == sum(_spelled_out_size(m) for m in sent)
    assert calls == [metadata]  # sizing again reused the shared bytes


# -- the metadata encoder is json.dumps(sort_keys=True), byte for byte -----------

@settings(max_examples=600, deadline=None)
@given(metadata=_any_metadata)
def test_metadata_encoder_is_json_dumps_sort_keys_byte_for_byte(metadata):
    expected = json.dumps(metadata, sort_keys=True).encode()
    assert message_module.encode_metadata(metadata) == expected
    # ... and stays so right after an encoding that raised.
    with pytest.raises(TypeError):
        message_module.encode_metadata({"k": [metadata, object()]})
    assert message_module.encode_metadata(metadata) == expected


@pytest.mark.parametrize("value", _EDGE_FLOATS, ids=repr)
def test_metadata_encoder_spells_every_edge_float_as_json_dumps_does(value):
    for places in (9, 6):
        metadata = {"kwh": value, "rounded": value if value != value else round(value, places)}
        assert message_module.encode_metadata(metadata) == json.dumps(
            metadata, sort_keys=True
        ).encode()


def test_metadata_encoder_without_the_c_accelerator_is_the_stock_encoder(monkeypatch):
    monkeypatch.setattr(message_module, "_iterencode", None)
    metadata = {"b": [1, {"z": None, "a": "\u00e9"}], "a": -0.0, "n": float("nan")}
    assert message_module.encode_metadata(metadata) == json.dumps(metadata, sort_keys=True).encode()


def test_cyclic_metadata_fails_without_poisoning_the_encoder():
    cyclic = {"a": 1}
    cyclic["self"] = cyclic
    with pytest.raises((RecursionError, ValueError)):
        message_module.encode_metadata(cyclic)
    assert message_module.encode_metadata({"a": 1}) == b'{"a": 1}'


@pytest.fixture(scope="module")
def socket_window_messages():
    """Every message of one real 64-home general-market window over sockets."""
    dataset = generate_dataset(TraceConfig(home_count=64, window_count=720, seed=7))
    agents = build_agents(dataset)
    plain = PlainTradingEngine(PAPER_PARAMETERS)
    for window_slice in iter_windows(dataset):
        states = states_for_window(agents, window_slice)
        result = plain.run_window(window_slice.window, states)
        if result.case.value == "general" and len(result.coalitions.sellers) >= 16:
            break
    else:  # pragma: no cover - the seeded day has markets of that size
        pytest.fail("no general-market window with 16 sellers in the 64-home day")
    engine = PrivateTradingEngine(
        PAPER_PARAMETERS,
        ProtocolConfig(
            key_size=helpers.TEST_KEY_SIZE,
            key_pool_size=4,
            seed=5,
            ot_extension_kappa=helpers.TEST_KAPPA,
            transport="socket",
            session_scope="day",
            aggregation_topology="tree:2",
        ),
    )
    network = engine.build_network()
    messages = []
    network.add_message_hook(messages.append)
    try:
        engine.run_window(window_slice.window, states, network=network)
    finally:
        network.close()
    return messages


#: ``byte_size()`` minus (encoded frame + 4-byte length prefix), per kind,
#: for the ``home-NNN`` ids of a real window: 64 - (18 + 4 + 8 + 8).  The
#: same number for every kind — the codec spends nothing kind-specific —
#: and the table ``docs/WIRE.md`` prints.
ACCOUNTED_MINUS_ENCODED = {
    "market_aggregate": 26,
    "market_result": 26,
    "pricing_aggregate": 26,
    "price_broadcast": 26,
    "demand_aggregate": 26,
    "ratio_submission": 26,
    "ratio_broadcast": 26,
    "energy_route": 26,
    "payment": 26,
}


def test_accounted_size_bounds_the_wire_size_of_every_message_of_a_real_window(
    socket_window_messages,
):
    assert len(socket_window_messages) > 500
    deltas = collections.defaultdict(set)
    for message in socket_window_messages:
        wire = len(message.encode()) + _LENGTH_PREFIX
        assert message.byte_size() == _spelled_out_size(message)
        assert message.byte_size() >= wire
        deltas[message.kind.value].add(message.byte_size() - wire)
    assert {kind: sorted(values) for kind, values in deltas.items()} == {
        kind: [ACCOUNTED_MINUS_ENCODED[kind]] for kind in deltas
    }
    assert len(deltas) >= 8


def test_documented_delta_table_matches():
    text = (REPO_ROOT / "docs" / "WIRE.md").read_text()
    for kind, delta in ACCOUNTED_MINUS_ENCODED.items():
        assert f"| `{kind}` | {delta} |" in text, kind


# -- the frame-length bound ------------------------------------------------------


def test_recv_frame_refuses_a_length_beyond_the_cap_without_reading_it():
    left, right = socket.socketpair()
    with left, right:
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"tail")
        with pytest.raises(FrameError, match="exceeds"):
            recv_frame(right)
        assert right.recv(16) == b"tail"  # nothing of the claimed frame was consumed
        send_frame(left, b"x" * 1024)
        assert recv_frame(right) == b"x" * 1024


def test_send_frame_and_deliver_refuse_an_over_long_frame(monkeypatch):
    monkeypatch.setattr(transport_module, "MAX_FRAME_BYTES", 1024)
    left, right = socket.socketpair()
    with left, right:
        with pytest.raises(FrameError, match="exceeds"):
            send_frame(left, b"x" * 1025)
    transport = make_transport("socket")
    try:
        delivered = []
        transport.register("bob", delivered.append)
        transport.deliver([Message("alice", "bob", MessageKind.GENERIC, payload=b"ok")])
        with pytest.raises(FrameError, match="exceeds"):
            transport.deliver([Message("alice", "bob", MessageKind.PAYMENT, payload=b"x" * 2048)])
        transport.flush()  # the refused frame was never queued
        assert [m.payload for m in delivered] == [b"ok"]
    finally:
        transport.close()


def test_receiver_hangs_up_on_an_over_long_length_prefix():
    transport = make_transport("socket")
    try:
        delivered = []
        transport.register("bob", delivered.append)
        transport.deliver([Message("alice", "bob", MessageKind.GENERIC, payload=b"first")])
        with transport._lock:
            transport._pending += struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ConnectionLostError) as excinfo:
            transport.flush()
        assert (excinfo.value.sender, excinfo.value.recipient, excinfo.value.ordinal) == (
            "alice", "bob", 0
        )
        assert [m.payload for m in delivered] == [b"first"]
        with pytest.raises(TransportError):
            transport.deliver([Message("alice", "bob", MessageKind.GENERIC)])
    finally:
        transport.close()


# -- corrupted frames on a live transport ----------------------------------------


def _corrupt_metadata_of(monkeypatch, should_corrupt):
    """Make ``encode`` break the metadata JSON of the chosen messages, once each."""
    real = Message.encode
    corrupted = []

    def encode(message):
        frame = real(message)
        if message.metadata and should_corrupt(message) and not corrupted:
            corrupted.append(message)
            start = _HEADER.size + len(message.sender.encode()) + len(message.recipient.encode())
            frame = frame[:start] + b"\x00" + frame[start + 1:]  # '{' -> NUL: not JSON
        return frame

    monkeypatch.setattr(Message, "encode", encode)
    return corrupted


def test_corrupted_frame_surfaces_at_flush_as_a_frame_error_naming_the_frame(monkeypatch):
    _corrupt_metadata_of(monkeypatch, lambda message: message.metadata["n"] == 2)
    transport = make_transport("socket")
    try:
        delivered = []
        transport.register("bob", delivered.append)
        transport.deliver(
            Message("alice", "bob", MessageKind.ENERGY_ROUTE, metadata={"n": index})
            for index in range(5)
        )
        with pytest.raises(FrameError) as excinfo:
            transport.flush()
        error = excinfo.value
        assert type(error) is FrameError and error.fault == "frame-error"
        assert (error.sender, error.recipient, error.ordinal, error.kind) == (
            "alice", "bob", 2, "energy_route"
        )
        assert "metadata is not a JSON object" in str(error)
        # The ack named the same frame, in plain fields.
        where = error.__cause__
        assert isinstance(where, FrameError) and where is not error
        assert (where.sender, where.recipient, where.ordinal, where.kind) == (
            "alice", "bob", 2, "energy_route"
        )
        # Fail closed: nothing after the bad frame was delivered; the next flush is clean.
        assert [m.metadata["n"] for m in delivered] == [0, 1]
        transport.deliver([Message("alice", "bob", MessageKind.ENERGY_ROUTE, metadata={"n": 9})])
        transport.flush()
        assert [m.metadata["n"] for m in delivered] == [0, 1, 9]
    finally:
        transport.close()


def test_frame_for_an_endpoint_the_receiver_does_not_know_is_a_frame_error():
    transport = make_transport("socket")
    try:
        transport.register("bob", lambda message: None)
        frame = Message("alice", "mallory", MessageKind.GENERIC).encode()
        with transport._lock:
            transport._pending += struct.pack(">I", len(frame)) + frame
        transport.deliver([Message("alice", "bob", MessageKind.GENERIC)])
        with pytest.raises(FrameError, match="unregistered endpoint") as excinfo:
            transport.flush()
        assert (excinfo.value.recipient, excinfo.value.ordinal) == ("mallory", 0)
    finally:
        transport.close()


def test_supervisor_retries_a_corrupted_socket_frame_as_transient_transport(monkeypatch):
    market = helpers.tiny_market(transport="socket")
    windows = market.windows[:2]
    baseline = market.engine().run_windows_report(market.dataset, windows, workers=1)
    corrupted = _corrupt_metadata_of(
        monkeypatch, lambda message: message.kind is MessageKind.PAYMENT
    )
    engine = market.engine()
    engine.config = replace(engine.config, fault_plan=FaultPlan())  # supervised, zero faults
    report = engine.run_windows_report(market.dataset, windows, workers=1)
    assert len(corrupted) == 1
    assert report.identical_to(baseline, include_incidents=False)
    (incident,) = report.incidents
    assert (incident.classification, incident.action, incident.recovered) == (
        "transient_transport", "retry", True
    )
    assert incident.fault == "frame-error"
    assert "metadata is not a JSON object" in incident.detail
    assert f"sender={corrupted[0].sender!r}" in incident.detail


# -- the ack codec ----------------------------------------------------------------


def test_ack_round_trips_and_rejects_everything_else():
    encode, decode = transport_module._encode_ack, transport_module._decode_ack
    assert decode(encode(None)) is None
    where = FrameError("x", sender="alice", recipient="bob", ordinal=7, kind="payment")
    named = decode(encode(where))
    assert (named.sender, named.recipient, named.ordinal, named.kind) == ("alice", "bob", 7, "payment")
    anonymous = decode(encode(FrameError("x", ordinal=3)))  # the frame never decoded
    assert (anonymous.sender, anonymous.recipient, anonymous.ordinal, anonymous.kind) == (
        None, None, 3, None
    )
    for reply in (b"", b"\x00", encode(None) + b"x", encode(where)[:-1], b"\x07" + encode(None)[1:]):
        with pytest.raises(FrameError):
            decode(reply)


@settings(max_examples=300, deadline=None)
@given(reply=st.binary(max_size=64))
def test_arbitrary_ack_bytes_decode_or_raise_frame_error(reply):
    try:
        named = transport_module._decode_ack(reply)
    except FrameError:
        return
    assert named is None or isinstance(named, FrameError)
