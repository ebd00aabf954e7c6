"""Unit and property tests for the Yao garbled-circuit machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.circuits import (
    bits_to_int,
    build_adder_circuit,
    build_greater_than_circuit,
    int_to_bits,
    lower_to_xor_and,
)
from repro.crypto.garbled import (
    GarbledCircuit,
    GarblingError,
    WireLabel,
    evaluate_garbled_circuit,
    garble_circuit,
    garble_circuit_halfgates,
    run_two_party_computation,
)


def _evaluate_with_known_labels(circuit, garbler_bits, evaluator_bits, rng):
    """Garble and evaluate handing the evaluator its labels directly (no OT)."""
    out = garble_circuit(circuit, rng=rng)
    garbler_labels = out.garbler_input_labels(garbler_bits)
    evaluator_labels = [
        out.wire_labels[w].for_value(b)
        for w, b in zip(circuit.evaluator_inputs, evaluator_bits)
    ]
    return evaluate_garbled_circuit(out.garbled, garbler_labels, evaluator_labels)


def test_garbled_matches_plain_comparator_exhaustive():
    circuit = build_greater_than_circuit(4)
    rng = random.Random(0)
    for a in range(16):
        for b in range(16):
            garbled = _evaluate_with_known_labels(
                circuit, int_to_bits(a, 4), int_to_bits(b, 4), rng
            )
            assert garbled == circuit.evaluate(int_to_bits(a, 4), int_to_bits(b, 4))


def test_garbled_adder_matches_plain():
    circuit = build_adder_circuit(6)
    rng = random.Random(1)
    for a, b in [(0, 0), (1, 1), (13, 50), (63, 63), (32, 31)]:
        garbled = _evaluate_with_known_labels(circuit, int_to_bits(a, 6), int_to_bits(b, 6), rng)
        assert bits_to_int(garbled) == (a + b) % 64


def test_wire_label_validation():
    with pytest.raises(GarblingError):
        WireLabel(key=b"short", external_bit=0)
    with pytest.raises(GarblingError):
        WireLabel(key=b"\x00" * 16, external_bit=2)
    with pytest.raises(GarblingError):
        WireLabel.from_bytes(b"\x00" * 3)


def test_wire_label_serialization_roundtrip():
    label = WireLabel(key=bytes(range(16)), external_bit=1)
    assert WireLabel.from_bytes(label.to_bytes()) == label


def test_evaluation_rejects_wrong_label_count():
    circuit = build_greater_than_circuit(4)
    out = garble_circuit(circuit, rng=random.Random(2))
    with pytest.raises(GarblingError):
        evaluate_garbled_circuit(out.garbled, [], [])


def test_evaluation_detects_corrupted_labels():
    circuit = build_greater_than_circuit(4)
    out = garble_circuit(circuit, rng=random.Random(3))
    garbler_labels = out.garbler_input_labels(int_to_bits(5, 4))
    bogus = [WireLabel(key=b"\xaa" * 16, external_bit=0) for _ in circuit.evaluator_inputs]
    with pytest.raises(GarblingError):
        evaluate_garbled_circuit(out.garbled, garbler_labels, bogus)


def test_garbler_input_label_count_checked():
    circuit = build_greater_than_circuit(4)
    out = garble_circuit(circuit, rng=random.Random(4))
    with pytest.raises(GarblingError):
        out.garbler_input_labels([1, 0])


def test_serialized_size_positive_and_scales():
    small = garble_circuit(build_greater_than_circuit(4), rng=random.Random(5))
    large = garble_circuit(build_greater_than_circuit(16), rng=random.Random(5))
    assert 0 < small.garbled.serialized_size() < large.garbled.serialized_size()


def _active_labels(circuit, out, a, b, width):
    evaluator_labels = [
        out.wire_labels[w].for_value(bit)
        for w, bit in zip(circuit.evaluator_inputs, int_to_bits(b, width))
    ]
    return out.garbler_input_labels(int_to_bits(a, width)), evaluator_labels


@pytest.mark.parametrize(
    "garble, lower, message",
    [
        (garble_circuit, lambda c: c, "serialized wire label has wrong length"),
        (
            garble_circuit_halfgates,
            lower_to_xor_and,
            "half-gates AND table must have two label-sized rows",
        ),
    ],
)
@pytest.mark.parametrize("resize", [lambda t: t[:-1], lambda t: t + b"\x00", lambda t: b""])
def test_wrong_length_table_buffer_is_rejected(garble, lower, message, resize):
    circuit = lower(build_greater_than_circuit(4))
    out = garble(circuit, rng=random.Random(7))
    labels = _active_labels(circuit, out, 9, 3, 4)
    out.garbled.tables = resize(out.garbled.tables)
    with pytest.raises(GarblingError, match=message):
        evaluate_garbled_circuit(out.garbled, *labels)


def test_row_decrypting_to_a_bad_external_bit_is_rejected():
    """Gate 1 (the first AND) is on every path; its rows' 17th byte is the external bit."""
    circuit = build_greater_than_circuit(4)
    out = garble_circuit(circuit, rng=random.Random(8))
    labels = _active_labels(circuit, out, 9, 3, 4)
    assert len(out.garbled.rows(1)) == 4 and out.garbled.rows(0) == ()
    tables = bytearray(out.garbled.tables)
    for row in range(4):
        tables[17 * row + 16] ^= 0x80
    out.garbled.tables = bytes(tables)
    with pytest.raises(GarblingError, match="external bit must be 0 or 1"):
        evaluate_garbled_circuit(out.garbled, *labels)


def test_halfgates_rejects_an_or_gate_on_both_sides():
    circuit = build_greater_than_circuit(4)  # not lowered: still has OR gates
    with pytest.raises(GarblingError, match="requires a lowered circuit"):
        garble_circuit_halfgates(circuit, rng=random.Random(9))
    out = garble_circuit(circuit, rng=random.Random(9))
    forged = GarbledCircuit(
        circuit=circuit,
        tables=out.garbled.tables,
        output_decoding=out.garbled.output_decoding,
        scheme="halfgates",
    )
    with pytest.raises(GarblingError, match="unsupported OR gate"):
        evaluate_garbled_circuit(forged, *_active_labels(circuit, out, 9, 3, 4))


@pytest.mark.parametrize(
    "garble, lower", [(garble_circuit, lambda c: c), (garble_circuit_halfgates, lower_to_xor_and)]
)
def test_unrecognized_output_digest_is_rejected(garble, lower):
    circuit = lower(build_greater_than_circuit(4))
    out = garble(circuit, rng=random.Random(10))
    wire = circuit.output_wires[0]
    out.garbled.output_decoding[wire] = (b"\x00" * 32, b"\x01" * 32)
    with pytest.raises(GarblingError, match=f"output wire {wire} produced an unrecognized label"):
        evaluate_garbled_circuit(out.garbled, *_active_labels(circuit, out, 9, 3, 4))


def test_full_two_party_protocol_with_ot():
    result = run_two_party_computation(
        build_greater_than_circuit(16),
        int_to_bits(40_000, 16),
        int_to_bits(39_999, 16),
        rng=random.Random(6),
    )
    assert result.output_bits == [1]
    assert result.garbler_bytes_sent > 0
    assert result.evaluator_bytes_sent > 0


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_garbled_comparator_property(a, b):
    circuit = build_greater_than_circuit(8)
    rng = random.Random(a * 257 + b)
    assert _evaluate_with_known_labels(circuit, int_to_bits(a, 8), int_to_bits(b, 8), rng) == [
        int(a > b)
    ]
