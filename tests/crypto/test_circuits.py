"""Unit and property tests for the boolean circuit builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gc_oracles import bits_to_int, build_adder_circuit, gate_mux, lower_to_xor_and
from repro.crypto.circuits import (
    Circuit,
    CircuitBuilder,
    Gate,
    GateType,
    build_greater_than_circuit,
    int_to_bits,
)


def test_int_to_bits_roundtrip():
    for value in (0, 1, 5, 127, 128, 255):
        assert bits_to_int(int_to_bits(value, 8)) == value


def test_int_to_bits_validation():
    with pytest.raises(ValueError):
        int_to_bits(-1, 8)
    with pytest.raises(ValueError):
        int_to_bits(256, 8)


def test_gate_arity_validation():
    with pytest.raises(ValueError):
        Gate(gate_type=GateType.AND, input_wires=(0,), output_wire=1)
    with pytest.raises(ValueError):
        Gate(gate_type=GateType.NOT, input_wires=(0, 1), output_wire=2)


def test_basic_gates_via_builder():
    builder = CircuitBuilder()
    a = builder.garbler_input()
    b = builder.evaluator_input()
    circuit = builder.build(
        [builder.gate_and(a, b), builder.gate_or(a, b), builder.gate_xor(a, b), builder.gate_not(a)]
    )
    for bit_a in (0, 1):
        for bit_b in (0, 1):
            and_, or_, xor_, not_ = circuit.evaluate([bit_a], [bit_b])
            assert and_ == (bit_a & bit_b)
            assert or_ == (bit_a | bit_b)
            assert xor_ == (bit_a ^ bit_b)
            assert not_ == (1 - bit_a)


def test_mux_gate():
    builder = CircuitBuilder()
    sel = builder.garbler_input()
    x = builder.evaluator_input()
    y = builder.evaluator_input()
    circuit = builder.build([gate_mux(builder, sel, x, y)])
    assert circuit.evaluate([1], [1, 0]) == [1]
    assert circuit.evaluate([0], [1, 0]) == [0]
    assert circuit.evaluate([0], [0, 1]) == [1]


def test_circuit_input_count_validation():
    circuit = build_greater_than_circuit(4)
    with pytest.raises(ValueError):
        circuit.evaluate([1, 0], [0, 0, 0, 0])
    with pytest.raises(ValueError):
        circuit.evaluate([1, 0, 0, 0], [0])


def test_comparator_exhaustive_small():
    circuit = build_greater_than_circuit(4)
    for a in range(16):
        for b in range(16):
            result = circuit.evaluate(int_to_bits(a, 4), int_to_bits(b, 4))[0]
            assert result == int(a > b), f"{a} > {b}"


def test_adder_exhaustive_small():
    circuit = build_adder_circuit(4)
    for a in range(16):
        for b in range(16):
            result = bits_to_int(circuit.evaluate(int_to_bits(a, 4), int_to_bits(b, 4)))
            assert result == (a + b) % 16


def test_and_gate_count_positive():
    circuit = build_greater_than_circuit(16)
    assert circuit.and_gate_count > 0
    assert circuit.and_gate_count < len(circuit.gates)


def test_lower_to_xor_and_preserves_semantics():
    for width in (1, 2, 4, 6):
        circuit = build_adder_circuit(width)
        lowered = lower_to_xor_and(circuit)
        assert not any(g.gate_type == GateType.OR for g in lowered.gates)
        assert lowered.output_wires == circuit.output_wires
        assert lowered.and_gate_count == circuit.and_gate_count
        for a in range(1 << width):
            for b in range(1 << width):
                bits_a, bits_b = int_to_bits(a, width), int_to_bits(b, width)
                assert lowered.evaluate(bits_a, bits_b) == circuit.evaluate(bits_a, bits_b)


def test_lower_to_xor_and_idempotent():
    lowered = lower_to_xor_and(build_adder_circuit(8))
    # No ORs left -> the pass returns the same object unchanged.
    assert lower_to_xor_and(lowered) is lowered
    comparator = build_greater_than_circuit(8)
    assert lower_to_xor_and(comparator) is comparator  # it never had an OR


def test_program_histogram_accounts_every_gate():
    circuit = build_greater_than_circuit(8)
    histogram = circuit.program.histogram
    assert sum(histogram.values()) == len(circuit.gates)
    # One AND per bit, three XORs per bit above the lsb, one NOT at the lsb.
    assert histogram == {"NOT": 1, "AND": 8, "XOR": 21}
    assert build_greater_than_circuit(64).program.histogram == {"NOT": 1, "AND": 64, "XOR": 189}
    adder = build_adder_circuit(8)
    adder_histogram = adder.program.histogram
    assert adder_histogram["OR"] == 7  # one carry OR per bit above the lsb
    lowered_histogram = lower_to_xor_and(adder).program.histogram
    assert "OR" not in lowered_histogram
    # Each OR becomes XOR + AND + XOR.
    assert lowered_histogram["AND"] == adder_histogram["AND"] + adder_histogram["OR"]
    assert lowered_histogram["XOR"] == adder_histogram["XOR"] + 2 * adder_histogram["OR"]


def test_counts_come_from_the_program_compiled_once():
    circuit = build_greater_than_circuit(8)
    program = circuit.program
    assert circuit.program is program  # cached on the circuit
    assert len(program.ops) == len(circuit.gates)
    assert circuit.and_gate_count == program.and_gate_count == 8
    # Table positions: consecutive among AND gates.
    and_slots = [
        op.and_slot
        for op, gate in zip(program.ops, circuit.gates)
        if gate.gate_type == GateType.AND
    ]
    assert and_slots == list(range(program.and_gate_count))
    for index, op in enumerate(program.ops):
        assert (op.tweak_g, op.tweak_e) == (
            (2 * index).to_bytes(8, "big"),
            (2 * index + 1).to_bytes(8, "big"),
        )


@pytest.mark.parametrize(
    "gates, inputs, outputs, wire_count, message",
    [
        ([Gate(GateType.AND, (0, 5), 2)], ([0], [1]), [2], 3, "reads undefined wire 5"),
        ([Gate(GateType.AND, (0, 2), 2)], ([0], [1]), [2], 3, "reads undefined wire 2"),
        ([Gate(GateType.NOT, (0,), 1)], ([0], [1]), [1], 2, "wire 1 is defined twice"),
        ([Gate(GateType.NOT, (0,), 7)], ([0], [1]), [0], 3, "wire 7 is outside range"),
        ([], ([0], [0]), [0], 1, "wire 0 is defined twice"),
        ([], ([0], [1]), [2], 3, "circuit output reads undefined wire 2"),
    ],
)
def test_program_rejects_malformed_circuits(gates, inputs, outputs, wire_count, message):
    circuit = Circuit(
        garbler_inputs=inputs[0],
        evaluator_inputs=inputs[1],
        gates=gates,
        output_wires=outputs,
        wire_count=wire_count,
    )
    with pytest.raises(ValueError, match=message):
        circuit.program  # noqa: B018


def test_builders_reject_zero_width():
    with pytest.raises(ValueError):
        build_greater_than_circuit(0)
    with pytest.raises(ValueError):
        build_adder_circuit(0)


@pytest.mark.parametrize("bit_width", [32, 64])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_comparator_property(bit_width, data):
    top = (1 << bit_width) - 1
    operand = st.one_of(st.integers(0, top), st.sampled_from((0, 1, top - 1, top)))
    a = data.draw(operand)
    b = data.draw(st.one_of(operand, st.just(a)))
    circuit = build_greater_than_circuit(bit_width)
    assert circuit.evaluate(int_to_bits(a, bit_width), int_to_bits(b, bit_width))[0] == int(a > b)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_adder_property_8bit(a, b):
    circuit = build_adder_circuit(8)
    assert bits_to_int(circuit.evaluate(int_to_bits(a, 8), int_to_bits(b, 8))) == (a + b) % 256
