"""Unit and property tests for the Yao garbled-circuit machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gc_oracles import bits_to_int, build_adder_circuit, lower_to_xor_and
from repro.crypto.circuits import CircuitBuilder, build_greater_than_circuit, int_to_bits
from repro.crypto.garbled import (
    GarbledCircuit,
    GarblingError,
    evaluate_garbled_circuit,
    garble_circuit,
    label_key,
    run_two_party_computation,
)
from repro.crypto.gc_pool import ComparisonPool, PreparedComparison


def _active_keys(circuit, out, garbler_bits, evaluator_bits):
    """The active input keys, handing the evaluator its labels directly (no OT)."""
    evaluator_keys = [out.key(w, b) for w, b in zip(circuit.evaluator_inputs, evaluator_bits)]
    return out.garbler_input_keys(garbler_bits), evaluator_keys


def _evaluate_with_known_labels(circuit, garbler_bits, evaluator_bits, rng):
    out = garble_circuit(circuit, rng=rng)
    keys = _active_keys(circuit, out, garbler_bits, evaluator_bits)
    return evaluate_garbled_circuit(out.garbled, *keys)


@pytest.mark.parametrize("bit_width", [1, 2, 3, 4, 5, 6])
def test_garbled_matches_plain_comparator_exhaustive(bit_width):
    circuit = build_greater_than_circuit(bit_width)
    rng = random.Random(bit_width)
    for a in range(1 << bit_width):
        for b in range(1 << bit_width):
            bits_a, bits_b = int_to_bits(a, bit_width), int_to_bits(b, bit_width)
            assert _evaluate_with_known_labels(circuit, bits_a, bits_b, rng) == [int(a > b)]


def test_garbled_adder_matches_plain():
    circuit = lower_to_xor_and(build_adder_circuit(6))
    rng = random.Random(1)
    for a, b in [(0, 0), (1, 1), (13, 50), (63, 63), (32, 31)]:
        garbled = _evaluate_with_known_labels(circuit, int_to_bits(a, 6), int_to_bits(b, 6), rng)
        assert bits_to_int(garbled) == (a + b) % 64


def test_label_key_reads_the_wire_format():
    out = garble_circuit(build_greater_than_circuit(4), rng=random.Random(0))
    for wire, (zero, one) in zip(out.garbled.circuit.evaluator_inputs, out.evaluator_label_pairs()):
        assert (label_key(zero), label_key(one)) == (out.key(wire, 0), out.key(wire, 1))
        # 16 key bytes, then the external bit (the key's lsb).
        assert (zero[16], one[16]) == (out.key(wire, 0) & 1, out.key(wire, 1) & 1)
    for size in (0, 3, 16, 18):
        with pytest.raises(GarblingError, match="wrong length"):
            label_key(b"\x00" * size)


def test_evaluation_rejects_wrong_label_count():
    circuit = build_greater_than_circuit(4)
    out = garble_circuit(circuit, rng=random.Random(2))
    with pytest.raises(GarblingError):
        evaluate_garbled_circuit(out.garbled, [], [])


def test_evaluation_detects_corrupted_labels():
    circuit = build_greater_than_circuit(4)
    out = garble_circuit(circuit, rng=random.Random(3))
    garbler_keys = out.garbler_input_keys(int_to_bits(5, 4))
    bogus = [int.from_bytes(b"\xaa" * 16, "big") for _ in circuit.evaluator_inputs]
    with pytest.raises(GarblingError):
        evaluate_garbled_circuit(out.garbled, garbler_keys, bogus)


def test_garbler_input_label_count_checked():
    circuit = build_greater_than_circuit(4)
    out = garble_circuit(circuit, rng=random.Random(4))
    with pytest.raises(GarblingError):
        out.garbler_input_keys([1, 0])


def test_serialized_size_positive_and_scales():
    small = garble_circuit(build_greater_than_circuit(4), rng=random.Random(5))
    large = garble_circuit(build_greater_than_circuit(16), rng=random.Random(5))
    assert 0 < small.garbled.serialized_size() < large.garbled.serialized_size()


@pytest.mark.parametrize("resize", [lambda t: t[:-1], lambda t: t + b"\x00", lambda t: b""])
def test_wrong_length_table_buffer_is_rejected(resize):
    circuit = build_greater_than_circuit(4)
    out = garble_circuit(circuit, rng=random.Random(7))
    keys = _active_keys(circuit, out, int_to_bits(9, 4), int_to_bits(3, 4))
    out.garbled.tables = resize(out.garbled.tables)
    with pytest.raises(GarblingError, match="AND table must have two label-sized rows"):
        evaluate_garbled_circuit(out.garbled, *keys)


def _or_circuit():
    """``a OR b``: the one gate the garbler cannot garble unlowered."""
    builder = CircuitBuilder()
    a, b = builder.garbler_input(), builder.evaluator_input()
    return builder.build([builder.gate_or(a, b)])


def test_halfgates_rejects_an_or_gate_on_both_sides():
    circuit = _or_circuit()
    with pytest.raises(GarblingError, match="requires a lowered circuit"):
        garble_circuit(circuit, rng=random.Random(9))
    lowered = lower_to_xor_and(circuit)
    out = garble_circuit(lowered, rng=random.Random(9))
    # The lowered circuit garbles; the same tables under the OR circuit do not evaluate.
    forged = GarbledCircuit(
        circuit=circuit, tables=out.garbled.tables, output_decoding=out.garbled.output_decoding
    )
    with pytest.raises(GarblingError, match="unsupported OR gate"):
        evaluate_garbled_circuit(forged, *_active_keys(lowered, out, [1], [0]))
    for a in (0, 1):
        for b in (0, 1):
            keys = _active_keys(lowered, out, [a], [b])
            assert evaluate_garbled_circuit(out.garbled, *keys) == [a | b]


def test_unrecognized_output_digest_is_rejected():
    circuit = build_greater_than_circuit(4)
    out = garble_circuit(circuit, rng=random.Random(10))
    wire = circuit.output_wires[0]
    out.garbled.output_decoding[wire] = (b"\x00" * 32, b"\x01" * 32)
    keys = _active_keys(circuit, out, int_to_bits(9, 4), int_to_bits(3, 4))
    with pytest.raises(GarblingError, match=f"output wire {wire} produced an unrecognized label"):
        evaluate_garbled_circuit(out.garbled, *keys)


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


def test_two_party_protocol_refuses_an_unlowered_circuit():
    with pytest.raises(GarblingError, match="requires a lowered circuit"):
        run_two_party_computation(_or_circuit(), [1], [0], rng=random.Random(6))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_garbled_comparator_property(a, b):
    circuit = build_greater_than_circuit(8)
    rng = random.Random(a * 257 + b)
    assert _evaluate_with_known_labels(circuit, int_to_bits(a, 8), int_to_bits(b, 8), rng) == [
        int(a > b)
    ]


@pytest.mark.parametrize(
    "build",
    [
        lambda: ComparisonPool(8, scheme="classic"),
        lambda: PreparedComparison(
            build_greater_than_circuit(8), 8, None, scheme="halfgates"
        ),
        lambda: run_two_party_computation(
            build_greater_than_circuit(1), [1], [0], scheme="classic"
        ),
    ],
    ids=["ComparisonPool", "PreparedComparison", "run_two_party_computation"],
)
def test_there_is_no_scheme_parameter(build):
    """One garbler: the entry points that used to take a scheme no longer do."""
    with pytest.raises(TypeError, match="scheme"):
        build()
