"""Boolean circuit representation and builders.

The Private Market Evaluation protocol (Protocol 2 in the paper) ends with a
Fairplay-style secure comparison of the two blinded aggregates ``R_b`` and
``R_s``.  We implement that comparison as a Yao garbled circuit over a
boolean comparator circuit.  This module defines the plain (ungarbled)
circuit representation — wires, gates, topological evaluation — and circuit
builders for the comparator and an adder, plus helpers to convert integers
to/from little-endian bit vectors.

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
    "build_adder_circuit",
    "lower_to_xor_and",
    "int_to_bits",
    "bits_to_int",
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

#: Per binary gate type, the truth row reordered for point-and-permute:
#: ``_SLOT_VALUES[type][2 * permute_a + permute_b][slot]`` is the gate's output
#: value for the table row at ``slot = 2 * external_a + external_b``, where a
#: label's external bit is its truth value XOR its wire's permute bit.
_SLOT_VALUES: Dict[GateType, Tuple[Tuple[int, ...], ...]] = {
    gate_type: tuple(
        tuple(table[(slot >> 1) ^ permute_a, (slot & 1) ^ permute_b] for slot in range(4))
        for permute_a in (0, 1)
        for permute_b in (0, 1)
    )
    for gate_type, table in TRUTH_TABLES.items()
    if gate_type != GateType.NOT
}


class Op(NamedTuple):
    """One gate of a :class:`CircuitProgram`, everything pre-resolved.

    The garblers and evaluators of :mod:`repro.crypto.garbled` unpack these
    as plain tuples, once per gate per instance; nothing in here depends on
    label material, so it is computed once per circuit.
    """

    kind: int  #: ``OP_NOT`` / ``OP_XOR`` / ``OP_AND`` / ``OP_OR``
    in_a: int
    in_b: int  #: equals ``in_a`` for NOT
    out: int
    truth: Tuple[Tuple[int, ...], ...]  #: ``_SLOT_VALUES`` row; ``()`` for NOT
    tag: bytes  #: gate index, 4 bytes big-endian (classic row-pad domain)
    tweak_g: bytes  #: ``2 * index``, 8 bytes big-endian (half-gates generator half)
    tweak_e: bytes  #: ``2 * index + 1`` (half-gates evaluator half)
    slot: int  #: ordinal among binary gates (classic table position)
    and_slot: int  #: ordinal among AND/OR gates (half-gates table position)


class CircuitProgram(NamedTuple):
    """A circuit compiled for garbling: flat ops plus the counts they imply."""

    ops: Tuple[Op, ...]
    and_gate_count: int  #: AND + OR gates (the ones that cost table rows everywhere)
    binary_gate_count: int  #: AND + OR + XOR gates (table-bearing under ``classic``)
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
                defined twice — the garblers draw label material in program
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
        binary = non_free = 0
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
                    truth=_SLOT_VALUES.get(gate_type, ()),
                    tag=index.to_bytes(4, "big"),
                    tweak_g=(2 * index).to_bytes(8, "big"),
                    tweak_e=(2 * index + 1).to_bytes(8, "big"),
                    slot=binary,
                    and_slot=non_free,
                )
            )
            binary += gate_type != GateType.NOT
            non_free += gate_type in (GateType.AND, GateType.OR)
        for wire in self.output_wires:
            read(wire, "circuit output")
        return CircuitProgram(tuple(ops), non_free, binary, histogram)

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

    def gate_histogram(self) -> Dict[str, int]:
        """Gate counts by type, e.g. ``{"AND": 10, "XOR": 7, "NOT": 12}``.

        Used by the bench to *measure* the free-XOR claim (what fraction of
        the comparator is XOR-family and therefore table-free under
        half-gates) instead of asserting it.
        """
        return dict(self.program.histogram)


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

    def gate_xnor(self, a: int, b: int) -> int:
        return self.gate_not(self.gate_xor(a, b))

    def gate_mux(self, selector: int, when_one: int, when_zero: int) -> int:
        """Return ``when_one`` if selector == 1 else ``when_zero``."""
        picked_one = self.gate_and(selector, when_one)
        picked_zero = self.gate_and(self.gate_not(selector), when_zero)
        return self.gate_or(picked_one, picked_zero)

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

    The comparison is computed most-significant-bit first with the classic
    recurrence ``gt_i = a_i AND NOT b_i  OR  (a_i XNOR b_i) AND gt_{i-1}``.
    """
    if bit_width < 1:
        raise ValueError(f"bit width must be >= 1, got {bit_width}")
    builder = CircuitBuilder()
    a_bits = [builder.garbler_input() for _ in range(bit_width)]
    b_bits = [builder.evaluator_input() for _ in range(bit_width)]

    gt_so_far: int | None = None
    # Walk from the least significant bit upward; after processing bit i the
    # accumulator holds the comparison result of the low (i+1)-bit prefixes:
    #   gt_i = (a_i AND NOT b_i) OR ((a_i XNOR b_i) AND gt_{i-1}).
    for i in range(bit_width):
        a_i, b_i = a_bits[i], b_bits[i]
        a_gt_b = builder.gate_and(a_i, builder.gate_not(b_i))
        if gt_so_far is None:
            gt_so_far = a_gt_b
        else:
            equal_here = builder.gate_xnor(a_i, b_i)
            carry_up = builder.gate_and(equal_here, gt_so_far)
            gt_so_far = builder.gate_or(a_gt_b, carry_up)
    assert gt_so_far is not None
    return builder.build([gt_so_far])


def build_adder_circuit(bit_width: int) -> Circuit:
    """Build a ripple-carry adder: output = (garbler + evaluator) mod 2^bit_width.

    Included both as a second non-trivial circuit for exercising the garbling
    machinery and as the building block for future extensions (e.g. secure
    aggregation entirely inside garbled circuits).
    """
    if bit_width < 1:
        raise ValueError(f"bit width must be >= 1, got {bit_width}")
    builder = CircuitBuilder()
    a_bits = [builder.garbler_input() for _ in range(bit_width)]
    b_bits = [builder.evaluator_input() for _ in range(bit_width)]

    outputs: List[int] = []
    carry: int | None = None
    for i in range(bit_width):
        a_i, b_i = a_bits[i], b_bits[i]
        partial = builder.gate_xor(a_i, b_i)
        if carry is None:
            outputs.append(partial)
            carry = builder.gate_and(a_i, b_i)
        else:
            outputs.append(builder.gate_xor(partial, carry))
            carry_from_ab = builder.gate_and(a_i, b_i)
            carry_from_partial = builder.gate_and(partial, carry)
            carry = builder.gate_or(carry_from_ab, carry_from_partial)
    return builder.build(outputs)


def lower_to_xor_and(circuit: Circuit) -> Circuit:
    """Rewrite every OR gate as ``(a XOR b) XOR (a AND b)``.

    Free-XOR garbling schemes only know how to garble XOR/AND/NOT, so OR
    gates are lowered before garbling.  The rewrite is exact (``a OR b ==
    (a XOR b) XOR (a AND b)``), allocates fresh intermediate wires past
    ``wire_count`` and keeps the original output wire of each OR, so
    downstream gate references and ``output_wires`` are untouched.

    A circuit without OR gates is returned unchanged (same object), which
    makes the pass idempotent.
    """
    if "OR" not in circuit.program.histogram:
        return circuit
    gates: List[Gate] = []
    next_wire = circuit.wire_count
    for gate in circuit.gates:
        if gate.gate_type != GateType.OR:
            gates.append(gate)
            continue
        a, b = gate.input_wires
        xor_wire = next_wire
        and_wire = next_wire + 1
        next_wire += 2
        gates.append(Gate(gate_type=GateType.XOR, input_wires=(a, b), output_wire=xor_wire))
        gates.append(Gate(gate_type=GateType.AND, input_wires=(a, b), output_wire=and_wire))
        gates.append(
            Gate(
                gate_type=GateType.XOR,
                input_wires=(xor_wire, and_wire),
                output_wire=gate.output_wire,
            )
        )
    return Circuit(
        garbler_inputs=list(circuit.garbler_inputs),
        evaluator_inputs=list(circuit.evaluator_inputs),
        gates=gates,
        output_wires=list(circuit.output_wires),
        wire_count=next_wire,
    )


def int_to_bits(value: int, bit_width: int) -> List[int]:
    """Convert a non-negative integer to a little-endian bit list."""
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if value >= (1 << bit_width):
        raise ValueError(f"value {value} does not fit in {bit_width} bits")
    return [(value >> i) & 1 for i in range(bit_width)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Convert a little-endian bit list back to an integer."""
    return sum((int(b) & 1) << i for i, b in enumerate(bits))
