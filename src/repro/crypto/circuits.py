"""Boolean circuit representation and builders.

The Private Market Evaluation protocol (Protocol 2 in the paper) ends with a
Fairplay-style secure comparison of the two blinded aggregates ``R_b`` and
``R_s``.  We implement that comparison as a Yao garbled circuit over a
boolean comparator circuit.  This module defines the plain (ungarbled)
circuit representation — wires, gates, topological evaluation — the
comparator's builder, and the conversion of integers to little-endian bit
vectors.

The garbling itself lives in :mod:`repro.crypto.garbled`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "GateType",
    "Gate",
    "Circuit",
    "Op",
    "CircuitProgram",
    "CircuitBuilder",
    "build_greater_than_circuit",
    "int_to_bits",
]


class GateType(str, Enum):
    """Supported two-input (or one-input) boolean gate types."""

    AND = "AND"
    XOR = "XOR"
    OR = "OR"
    NOT = "NOT"


#: Truth tables keyed by gate type; NOT ignores its second input.
TRUTH_TABLES: Dict[GateType, Dict[tuple[int, int], int]] = {
    GateType.AND: {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    GateType.XOR: {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
    GateType.OR: {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    GateType.NOT: {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0},
}


@dataclass(frozen=True)
class Gate:
    """A single boolean gate.

    Attributes:
        gate_type: the boolean function computed.
        input_wires: one wire id for NOT, two for the binary gates.
        output_wire: wire id holding the gate output.
    """

    gate_type: GateType
    input_wires: tuple[int, ...]
    output_wire: int

    def __post_init__(self) -> None:
        expected = 1 if self.gate_type == GateType.NOT else 2
        if len(self.input_wires) != expected:
            raise ValueError(
                f"{self.gate_type.value} gate expects {expected} inputs, "
                f"got {len(self.input_wires)}"
            )

    def evaluate(self, values: Dict[int, int]) -> int:
        """Evaluate the gate given a mapping of wire id -> bit."""
        a = values[self.input_wires[0]]
        b = values[self.input_wires[1]] if len(self.input_wires) == 2 else 0
        return TRUTH_TABLES[self.gate_type][(a, b)]


#: :attr:`Op.kind` codes (small ints: the garbling loops branch on them).
OP_NOT, OP_XOR, OP_AND, OP_OR = range(4)

_OP_KINDS = {GateType.NOT: OP_NOT, GateType.XOR: OP_XOR, GateType.AND: OP_AND, GateType.OR: OP_OR}


class Op(NamedTuple):
    """One gate of a :class:`CircuitProgram`, everything pre-resolved.

    The garbler and evaluator of :mod:`repro.crypto.garbled` unpack these
    as plain tuples, once per gate per instance; nothing in here depends on
    label material, so it is computed once per circuit.
    """

    kind: int  #: ``OP_NOT`` / ``OP_XOR`` / ``OP_AND`` / ``OP_OR``
    in_a: int
    in_b: int  #: equals ``in_a`` for NOT
    out: int
    tweak_g: bytes  #: ``2 * index``, 8 bytes big-endian (half-gates generator half)
    tweak_e: bytes  #: ``2 * index + 1`` (half-gates evaluator half)
    and_slot: int  #: ordinal among AND/OR gates (garbled-table position)


class CircuitProgram(NamedTuple):
    """A circuit compiled for garbling: flat ops plus the counts they imply."""

    ops: Tuple[Op, ...]
    and_gate_count: int  #: AND + OR gates (the ones that cost table rows)
    histogram: Dict[str, int]  #: gate counts by type name, first-seen order


@dataclass
class Circuit:
    """A boolean circuit in topological gate order.

    A circuit is immutable once built: :attr:`program` compiles it on first
    use and keeps the result.

    Attributes:
        garbler_inputs: wire ids carrying the garbler's (party 1) input bits.
        evaluator_inputs: wire ids carrying the evaluator's (party 2) bits.
        gates: gates in an order where every gate's inputs are already
            defined when it is reached.
        output_wires: wire ids whose final values form the circuit output.
        wire_count: total number of wires.
    """

    garbler_inputs: List[int]
    evaluator_inputs: List[int]
    gates: List[Gate]
    output_wires: List[int]
    wire_count: int
    _program: Optional[CircuitProgram] = field(default=None, init=False, repr=False, compare=False)

    @property
    def program(self) -> CircuitProgram:
        """The compiled flat program (built once, then cached on the circuit).

        Raises:
            ValueError: when a wire id is outside ``range(wire_count)``, a
                gate or output reads a wire nothing defined, or a wire is
                defined twice — the garbler draws label material in program
                order and index by wire id, so they rely on all three.
        """
        if self._program is None:
            self._program = self._compile()
        return self._program

    def _compile(self) -> CircuitProgram:
        defined = [False] * self.wire_count

        def define(wire: int, what: str) -> None:
            if not 0 <= wire < self.wire_count:
                raise ValueError(f"{what} wire {wire} is outside range({self.wire_count})")
            if defined[wire]:
                raise ValueError(f"{what} wire {wire} is defined twice")
            defined[wire] = True

        def read(wire: int, what: str) -> None:
            if not (0 <= wire < self.wire_count and defined[wire]):
                raise ValueError(f"{what} reads undefined wire {wire}")

        for wire in list(self.garbler_inputs) + list(self.evaluator_inputs):
            define(wire, "input")
        ops: List[Op] = []
        histogram: Dict[str, int] = {}
        non_free = 0
        for index, gate in enumerate(self.gates):
            for wire in gate.input_wires:
                read(wire, f"gate {index}")
            define(gate.output_wire, f"gate {index} output")
            gate_type = gate.gate_type
            histogram[gate_type.value] = histogram.get(gate_type.value, 0) + 1
            ops.append(
                Op(
                    kind=_OP_KINDS[gate_type],
                    in_a=gate.input_wires[0],
                    in_b=gate.input_wires[-1],
                    out=gate.output_wire,
                    tweak_g=(2 * index).to_bytes(8, "big"),
                    tweak_e=(2 * index + 1).to_bytes(8, "big"),
                    and_slot=non_free,
                )
            )
            non_free += gate_type in (GateType.AND, GateType.OR)
        for wire in self.output_wires:
            read(wire, "circuit output")
        return CircuitProgram(tuple(ops), non_free, histogram)

    def evaluate(self, garbler_bits: Sequence[int], evaluator_bits: Sequence[int]) -> List[int]:
        """Evaluate the circuit in the clear (used for testing and as oracle)."""
        if len(garbler_bits) != len(self.garbler_inputs):
            raise ValueError(
                f"expected {len(self.garbler_inputs)} garbler bits, got {len(garbler_bits)}"
            )
        if len(evaluator_bits) != len(self.evaluator_inputs):
            raise ValueError(
                f"expected {len(self.evaluator_inputs)} evaluator bits, got {len(evaluator_bits)}"
            )
        values: Dict[int, int] = {}
        for wire, bit in zip(self.garbler_inputs, garbler_bits):
            values[wire] = int(bit) & 1
        for wire, bit in zip(self.evaluator_inputs, evaluator_bits):
            values[wire] = int(bit) & 1
        for gate in self.gates:
            values[gate.output_wire] = gate.evaluate(values)
        return [values[w] for w in self.output_wires]

    @property
    def and_gate_count(self) -> int:
        """Number of AND/OR gates (the expensive ones under garbling)."""
        return self.program.and_gate_count


class CircuitBuilder:
    """Incrementally build a :class:`Circuit`.

    Wires are allocated sequentially; helper methods return the id of the
    freshly created output wire.
    """

    def __init__(self) -> None:
        self._wire_count = 0
        self._gates: List[Gate] = []
        self._garbler_inputs: List[int] = []
        self._evaluator_inputs: List[int] = []
        self._constant_wires: Dict[int, int] = {}

    def new_wire(self) -> int:
        wire = self._wire_count
        self._wire_count += 1
        return wire

    def garbler_input(self) -> int:
        """Allocate a wire carrying one bit of the garbler's input."""
        wire = self.new_wire()
        self._garbler_inputs.append(wire)
        return wire

    def evaluator_input(self) -> int:
        """Allocate a wire carrying one bit of the evaluator's input."""
        wire = self.new_wire()
        self._evaluator_inputs.append(wire)
        return wire

    def _gate(self, gate_type: GateType, *inputs: int) -> int:
        out = self.new_wire()
        self._gates.append(Gate(gate_type=gate_type, input_wires=tuple(inputs), output_wire=out))
        return out

    def gate_and(self, a: int, b: int) -> int:
        return self._gate(GateType.AND, a, b)

    def gate_or(self, a: int, b: int) -> int:
        return self._gate(GateType.OR, a, b)

    def gate_xor(self, a: int, b: int) -> int:
        return self._gate(GateType.XOR, a, b)

    def gate_not(self, a: int) -> int:
        return self._gate(GateType.NOT, a)

    def build(self, output_wires: Sequence[int]) -> Circuit:
        return Circuit(
            garbler_inputs=list(self._garbler_inputs),
            evaluator_inputs=list(self._evaluator_inputs),
            gates=list(self._gates),
            output_wires=list(output_wires),
            wire_count=self._wire_count,
        )


def build_greater_than_circuit(bit_width: int) -> Circuit:
    """Build a comparator circuit computing ``[garbler_value > evaluator_value]``.

    Inputs are unsigned integers of ``bit_width`` bits, supplied in
    little-endian bit order (matching :func:`int_to_bits`).  The single
    output bit is 1 iff the garbler's integer is strictly greater.

    The carry ``c_i`` holds ``[a mod 2^i > b mod 2^i]`` and is computed from
    the least significant bit upward with one AND gate per bit
    (Kolesnikov–Sadeghi–Schneider, CANS 2009):

    * ``c_1 = a_0 AND NOT b_0``
    * ``c_{i+1} = a_i XOR ((a_i XOR c_i) AND (b_i XOR c_i))``

    When ``a_i == b_i`` the AND returns ``a_i XOR c_i`` and the carry passes
    through; otherwise it is 0 and the carry becomes ``a_i``.  Under
    free-XOR that is ``bit_width`` AND gates, ``3 * (bit_width - 1)`` XOR
    gates and one NOT.
    """
    if bit_width < 1:
        raise ValueError(f"bit width must be >= 1, got {bit_width}")
    builder = CircuitBuilder()
    a_bits = [builder.garbler_input() for _ in range(bit_width)]
    b_bits = [builder.evaluator_input() for _ in range(bit_width)]

    carry = builder.gate_and(a_bits[0], builder.gate_not(b_bits[0]))
    for a_i, b_i in zip(a_bits[1:], b_bits[1:]):
        both_differ = builder.gate_and(builder.gate_xor(a_i, carry), builder.gate_xor(b_i, carry))
        carry = builder.gate_xor(a_i, both_differ)
    return builder.build([carry])


def int_to_bits(value: int, bit_width: int) -> List[int]:
    """Convert a non-negative integer to a little-endian bit list."""
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if value >= (1 << bit_width):
        raise ValueError(f"value {value} does not fit in {bit_width} bits")
    return [(value >> i) & 1 for i in range(bit_width)]

