"""Yao garbled circuits: pluggable garbling schemes.

This is the Fairplay-style building block used by PEM's Private Market
Evaluation: two parties (here the randomly chosen seller ``H_r1`` and buyer
``H_r2``) securely compare their blinded aggregates without revealing them.

Two :class:`GarblingScheme` implementations share one evaluator entry point
(:func:`evaluate_garbled_circuit` dispatches on ``GarbledCircuit.scheme``):

``classic`` (the default, canonical reference path)
    Every wire ``w`` gets two random 128-bit labels ``L_w^0``, ``L_w^1``
    plus a random *permute bit* ``π_w``.  For each binary gate the four
    possible (input-label, input-label) pairs encrypt the correct output
    label with a SHA-256 based dual-key cipher; the rows are stored ordered
    by the inputs' *external* bits (label's permute bit XOR its truth
    value), so the evaluator knows exactly which row to decrypt — the
    classic point-and-permute optimization.  NOT gates are handled for free
    by swapping labels at garble time (no table needed).

``halfgates`` (free-XOR + half-gates)
    All one-labels equal the zero-label XOR a circuit-global secret ``Δ``
    (Kolesnikov–Schneider free-XOR, ICALP'08), whose least-significant bit
    is forced to 1 so a label's external bit is simply its key's lsb.  XOR
    gates then cost zero table rows (output zero-label = XOR of the input
    zero-labels; the evaluator XORs active keys), NOT stays free, and each
    AND gate ships exactly two rows ``(T_G, T_E)`` via the half-gates
    construction (Zahur–Rosulek–Evans, EUROCRYPT'15) — the generator half
    computes ``a AND π_b`` and the evaluator half ``a AND (b XOR π_b)``.
    OR gates must be lowered first (:func:`repro.crypto.circuits.lower_to_xor_and`).

The two schemes produce incompatible label algebra, so labels and tables
necessarily differ — *outcome identity* on identical inputs is the
cross-scheme certificate (see ``BENCH_crypto.json``'s ``garbling`` section).

The evaluator obtains the garbler's input labels directly and its own input
labels through 1-out-of-2 oblivious transfer (:mod:`repro.crypto.ot`), so
neither party learns the other's input.

Word-wide representation: inside both garblers and both evaluators a label
is a raw key (``bytes`` under ``classic``, an ``int`` under ``halfgates``),
never a :class:`WireLabel` object, and a serialized label — 16 key bytes
followed by the external bit — is the big-endian int ``key << 8 | bit``.  A
classic row is therefore one SHA-256 and one big-int XOR of that int with the
first 17 pad bytes.  Hashing was never the bottleneck (~4 % of a comparison
while rows were XORed a byte at a time; see ``docs/ARCHITECTURE.md`` §4.5) —
Python object traffic is, so it is kept off the per-gate path
(:class:`_LazyLabelDict` materializes :class:`WireLabel` pairs on demand).
``tests/crypto/gc_oracles.py`` keeps the byte-at-a-time originals as the
oracle both garblers must match byte for byte under a seeded ``rng``.
"""

from __future__ import annotations

import hashlib
import random
import secrets
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .circuits import Circuit, Gate, GateType, TRUTH_TABLES, lower_to_xor_and
from .ot import OTGroup, run_oblivious_transfer

__all__ = [
    "WireLabel",
    "GarbledGate",
    "GarbledCircuit",
    "GarblerOutput",
    "GarblingScheme",
    "ClassicScheme",
    "HalfGatesScheme",
    "GARBLING_SCHEMES",
    "get_scheme",
    "garble_circuit",
    "garble_circuit_halfgates",
    "evaluate_garbled_circuit",
    "run_two_party_computation",
    "TwoPartyComputationResult",
]

#: Length of a wire label in bytes (128-bit labels, as in Fairplay).
LABEL_BYTES = 16

#: Length of a serialized label / classic table row: key + external bit.
ROW_BYTES = LABEL_BYTES + 1

#: Domain-separated SHA-256 state every half-gates hash starts from (copied
#: per call, so the prefix is absorbed once instead of concatenated each time).
_HG_BASE = hashlib.sha256(b"halfgates")

#: Raw per-wire garbler material a :class:`_LazyLabelDict` builds pairs from.
_M = TypeVar("_M")


class GarblingError(Exception):
    """Raised when garbled evaluation fails (wrong labels, corrupt tables)."""


@dataclass(frozen=True)
class WireLabel:
    """A garbled wire label with its point-and-permute external bit."""

    key: bytes
    external_bit: int

    def __post_init__(self) -> None:
        if len(self.key) != LABEL_BYTES:
            raise GarblingError(f"wire label must be {LABEL_BYTES} bytes")
        if self.external_bit not in (0, 1):
            raise GarblingError("external bit must be 0 or 1")

    def to_bytes(self) -> bytes:
        return self.key + bytes([self.external_bit])

    @classmethod
    def from_bytes(cls, data: bytes) -> "WireLabel":
        if len(data) != LABEL_BYTES + 1:
            raise GarblingError("serialized wire label has wrong length")
        return cls(key=data[:LABEL_BYTES], external_bit=data[LABEL_BYTES])


@dataclass(frozen=True)
class _WirePair:
    """Both labels of a wire, indexed by truth value."""

    zero: WireLabel
    one: WireLabel

    def for_value(self, bit: int) -> WireLabel:
        return self.one if bit else self.zero


@dataclass(frozen=True)
class GarbledGate:
    """A garbled truth table for one binary gate (4 rows) or none for NOT."""

    gate_type: GateType
    input_wires: tuple[int, ...]
    output_wire: int
    rows: Tuple[bytes, ...]


@dataclass
class GarbledCircuit:
    """Everything the evaluator needs except the input labels."""

    circuit: Circuit
    gates: List[GarbledGate]
    #: mapping output wire -> (hash of zero-label, hash of one-label) so the
    #: evaluator can decode output bits without learning other wires.
    output_decoding: Dict[int, Tuple[bytes, bytes]]
    #: garbling scheme that produced the tables; evaluation dispatches on it.
    scheme: str = "classic"
    _serialized_size: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def serialized_size(self) -> int:
        """Wire-format size in bytes (for bandwidth accounting).

        Under ``classic`` every gate ships its rows plus an 8-byte header
        (the seed formula, kept bit-identical).  Under ``halfgates`` free
        gates (XOR/NOT, no rows) ship *nothing* — the evaluator recomputes
        them from the circuit description it already holds — so only AND
        tables (2×16 bytes + header) and the output decoding cross the wire.

        Computed on first call and kept: a prepared comparison asks at
        build time and again at evaluation, and the tables it describes are
        one-shot material that never changes size.
        """
        if self._serialized_size is None:
            total = len(self.output_decoding) * 2 * 32
            for gate in self.gates:
                if gate.rows or self.scheme != "halfgates":
                    total += sum(map(len, gate.rows)) + 8
            self._serialized_size = total
        return self._serialized_size


@dataclass
class GarblerOutput:
    """The garbler's full view: the garbled circuit plus all wire labels."""

    garbled: GarbledCircuit
    wire_labels: Dict[int, _WirePair]

    def garbler_input_labels(self, bits: Sequence[int]) -> List[WireLabel]:
        """Select the garbler's own active input labels."""
        wires = self.garbled.circuit.garbler_inputs
        if len(bits) != len(wires):
            raise GarblingError("wrong number of garbler input bits")
        return [self.wire_labels[w].for_value(int(b) & 1) for w, b in zip(wires, bits)]

    def evaluator_label_pairs(self) -> List[Tuple[bytes, bytes]]:
        """Both labels for every evaluator input wire (fed into the OTs)."""
        pairs = []
        for wire in self.garbled.circuit.evaluator_inputs:
            pair = self.wire_labels[wire]
            pairs.append((pair.zero.to_bytes(), pair.one.to_bytes()))
        return pairs


def _row_pad(key_a: bytes, key_b: bytes, gate_tag: bytes) -> int:
    """Dual-key one-time pad for one table row (SHA-256, random-oracle style).

    Returned as an int so a row is encrypted — and decrypted — with a single
    big-int XOR against the serialized output label.
    """
    return int.from_bytes(hashlib.sha256(key_a + key_b + gate_tag).digest()[:ROW_BYTES], "big")


def _label_digest(key: bytes) -> bytes:
    return hashlib.sha256(b"output-decode" + key).digest()


def _decode_outputs(garbled: GarbledCircuit, active_keys: Sequence[bytes]) -> List[int]:
    """Map the output wires' active keys to bits; an unrecognized key fails closed."""
    outputs: List[int] = []
    for wire, key in zip(garbled.circuit.output_wires, active_keys):
        digest = _label_digest(key)
        zero_digest, one_digest = garbled.output_decoding[wire]
        if digest == zero_digest:
            outputs.append(0)
        elif digest == one_digest:
            outputs.append(1)
        else:
            raise GarblingError(f"output wire {wire} produced an unrecognized label")
    return outputs


#: One wire's secret material under ``classic``: ``(zero key, one key,
#: permute bit)``; the label for truth value ``v`` has external bit ``v ^ permute``.
_WireMaterial = Tuple[bytes, bytes, int]


def _label_material(rng: Optional[random.Random]) -> _WireMaterial:
    """Draw one wire's two label keys and its permute bit.

    The CSPRNG path is a single ``token_bytes`` draw per wire; the seeded
    path (tests, benches) keeps the historical draw order — permute bit,
    zero key, one key — so seeded garblings stay byte-identical.
    """
    if rng is None:
        raw = secrets.token_bytes(2 * LABEL_BYTES + 1)
        return raw[:LABEL_BYTES], raw[LABEL_BYTES : 2 * LABEL_BYTES], raw[-1] & 1
    permute = rng.getrandbits(1)
    zero = rng.getrandbits(8 * LABEL_BYTES).to_bytes(LABEL_BYTES, "big")
    one = rng.getrandbits(8 * LABEL_BYTES).to_bytes(LABEL_BYTES, "big")
    return zero, one, permute


def _pair_from_material(material: _WireMaterial) -> _WirePair:
    zero, one, permute = material
    return _WirePair(
        zero=WireLabel(key=zero, external_bit=permute),
        one=WireLabel(key=one, external_bit=1 - permute),
    )


class _LazyLabelDict(Dict[int, _WirePair]):
    """Wire → label pair, materialized from the garbler's raw material on access.

    Only the input wires are materialized eagerly (the protocol needs them
    on every run); internal-wire pairs are built on first lookup.  This
    keeps the garbling hot path free of per-wire ``WireLabel`` construction
    — at 64 bits that construction would otherwise cost as much as the
    row hashing itself.
    """

    def __init__(self, material: Dict[int, _M], build: Callable[[_M], _WirePair], eager: Sequence[int]):
        super().__init__()
        self._material = material
        self._build = build
        for wire in eager:
            self[wire]  # noqa: B018 - triggers __missing__

    def __missing__(self, wire: int) -> _WirePair:
        pair = self[wire] = self._build(self._material[wire])
        return pair


def garble_circuit(circuit: Circuit, rng: Optional[random.Random] = None) -> GarblerOutput:
    """Garble a boolean circuit.

    Labels are handled as raw ``(zero key, one key, permute)`` triples and
    each row is one SHA-256 plus one big-int XOR against the pre-serialized
    output label; :class:`WireLabel` pairs are materialized lazily for the
    protocol interface.

    Args:
        circuit: the plain circuit to garble.
        rng: optional deterministic random source (tests); defaults to the
            OS CSPRNG.

    Returns:
        the garbler's output (garbled tables plus all wire-label pairs).
    """
    material: Dict[int, _WireMaterial] = {}

    def ensure_material(wire: int) -> _WireMaterial:
        if wire not in material:
            material[wire] = _label_material(rng)
        return material[wire]

    inputs = list(circuit.garbler_inputs) + list(circuit.evaluator_inputs)
    for wire in inputs:
        ensure_material(wire)

    garbled_gates: List[GarbledGate] = []
    for gate_index, gate in enumerate(circuit.gates):
        if gate.gate_type == GateType.NOT:
            # Free NOT: the output wire reuses the input labels with truth
            # values swapped, so no garbled table is required.
            zero, one, permute = ensure_material(gate.input_wires[0])
            material[gate.output_wire] = (one, zero, 1 - permute)
            rows: Tuple[bytes, ...] = ()
        else:
            keys_a = ensure_material(gate.input_wires[0])
            keys_b = ensure_material(gate.input_wires[1])
            out_zero, out_one, out_permute = ensure_material(gate.output_wire)
            # The two serialized output labels (key + external bit), as ints.
            out_labels = (
                (int.from_bytes(out_zero, "big") << 8) | out_permute,
                (int.from_bytes(out_one, "big") << 8) | (1 - out_permute),
            )
            table = TRUTH_TABLES[gate.gate_type]
            gate_tag = gate_index.to_bytes(4, "big")
            permute_a, permute_b = keys_a[2], keys_b[2]
            slots = [b""] * 4
            for bit_a in (0, 1):
                for bit_b in (0, 1):
                    # Rows are ordered by the inputs' external bits.
                    slot = ((bit_a ^ permute_a) << 1) | (bit_b ^ permute_b)
                    pad = _row_pad(keys_a[bit_a], keys_b[bit_b], gate_tag)
                    slots[slot] = (pad ^ out_labels[table[bit_a, bit_b]]).to_bytes(
                        ROW_BYTES, "big"
                    )
            rows = tuple(slots)
        garbled_gates.append(
            GarbledGate(
                gate_type=gate.gate_type,
                input_wires=gate.input_wires,
                output_wire=gate.output_wire,
                rows=rows,
            )
        )

    output_decoding = {
        wire: (_label_digest(material[wire][0]), _label_digest(material[wire][1]))
        for wire in circuit.output_wires
    }
    garbled = GarbledCircuit(circuit=circuit, gates=garbled_gates, output_decoding=output_decoding)
    labels = _LazyLabelDict(material, _pair_from_material, eager=inputs)
    return GarblerOutput(garbled=garbled, wire_labels=labels)


# -- free-XOR + half-gates ---------------------------------------------------------------


def _hg_hash(key_int: int, tweak: bytes) -> int:
    """Half-gates hash ``H(W, t)``: SHA-256 truncated to one label, as an int.

    ``tweak`` is the 8-byte big-endian gate tweak, serialized once per gate
    by the caller rather than once per hash.
    """
    state = _HG_BASE.copy()
    state.update(key_int.to_bytes(LABEL_BYTES, "big") + tweak)
    return int.from_bytes(state.digest()[:LABEL_BYTES], "big")


def _hg_tweaks(gate_index: int) -> Tuple[bytes, bytes]:
    """The generator-half and evaluator-half tweaks ``2j`` and ``2j+1``."""
    return (2 * gate_index).to_bytes(8, "big"), (2 * gate_index + 1).to_bytes(8, "big")


def _label_from_int(key_int: int) -> WireLabel:
    """Materialize a half-gates label; its external bit is the key's lsb."""
    return WireLabel(key=key_int.to_bytes(LABEL_BYTES, "big"), external_bit=key_int & 1)


def garble_circuit_halfgates(
    circuit: Circuit, rng: Optional[random.Random] = None
) -> GarblerOutput:
    """Garble a lowered (XOR/AND/NOT-only) circuit with free-XOR + half-gates.

    A circuit-global secret ``Δ`` (lsb forced to 1) relates every wire's two
    labels: ``L^1 = L^0 XOR Δ``.  XOR gates and NOT gates emit no rows; each
    AND gate emits the two half-gate rows ``(T_G, T_E)``:

    * ``T_G = H(A0, 2j) ⊕ H(A1, 2j) ⊕ π_b·Δ`` — generator half ``a AND π_b``
    * ``T_E = H(B0, 2j+1) ⊕ H(B1, 2j+1) ⊕ A0`` — evaluator half
      ``a AND (b XOR π_b)``

    with output zero-label ``C0 = H(A0,2j) ⊕ π_a·T_G ⊕ H(B0,2j+1) ⊕
    π_b·(T_E ⊕ A0)``, where ``π_w = lsb(W0)``.  Labels are manipulated as
    ints internally (XOR-heavy inner loop) and materialized as
    :class:`WireLabel` pairs for the protocol interface.
    """
    if any(g.gate_type == GateType.OR for g in circuit.gates):
        raise GarblingError(
            "halfgates requires a lowered circuit (run lower_to_xor_and first)"
        )

    def rand_key() -> int:
        if rng is None:
            return int.from_bytes(secrets.token_bytes(LABEL_BYTES), "big")
        return rng.getrandbits(8 * LABEL_BYTES)

    delta = rand_key() | 1
    zero: Dict[int, int] = {}

    def ensure_zero(wire: int) -> int:
        if wire not in zero:
            zero[wire] = rand_key()
        return zero[wire]

    inputs = list(circuit.garbler_inputs) + list(circuit.evaluator_inputs)
    for wire in inputs:
        ensure_zero(wire)

    garbled_gates: List[GarbledGate] = []
    for gate_index, gate in enumerate(circuit.gates):
        if gate.gate_type == GateType.NOT:
            # Free NOT: the output zero-label is the input one-label.
            zero[gate.output_wire] = ensure_zero(gate.input_wires[0]) ^ delta
            rows: Tuple[bytes, ...] = ()
        elif gate.gate_type == GateType.XOR:
            # Free XOR: zero-labels XOR; Δ cancels on matching one-labels.
            a0 = ensure_zero(gate.input_wires[0])
            b0 = ensure_zero(gate.input_wires[1])
            zero[gate.output_wire] = a0 ^ b0
            rows = ()
        elif gate.gate_type == GateType.AND:
            a0 = ensure_zero(gate.input_wires[0])
            b0 = ensure_zero(gate.input_wires[1])
            p_a, p_b = a0 & 1, b0 & 1
            tweak_g, tweak_e = _hg_tweaks(gate_index)
            h_a0 = _hg_hash(a0, tweak_g)
            h_a1 = _hg_hash(a0 ^ delta, tweak_g)
            h_b0 = _hg_hash(b0, tweak_e)
            h_b1 = _hg_hash(b0 ^ delta, tweak_e)
            t_g = h_a0 ^ h_a1 ^ (delta if p_b else 0)
            t_e = h_b0 ^ h_b1 ^ a0
            w_g0 = h_a0 ^ (t_g if p_a else 0)
            w_e0 = h_b0 ^ ((t_e ^ a0) if p_b else 0)
            zero[gate.output_wire] = w_g0 ^ w_e0
            rows = (
                t_g.to_bytes(LABEL_BYTES, "big"),
                t_e.to_bytes(LABEL_BYTES, "big"),
            )
        else:  # pragma: no cover - exhaustive over lowered gate types
            raise GarblingError(f"halfgates cannot garble {gate.gate_type.value}")
        garbled_gates.append(
            GarbledGate(
                gate_type=gate.gate_type,
                input_wires=gate.input_wires,
                output_wire=gate.output_wire,
                rows=rows,
            )
        )

    labels = _LazyLabelDict(
        zero,
        lambda z: _WirePair(zero=_label_from_int(z), one=_label_from_int(z ^ delta)),
        eager=inputs,
    )
    output_decoding = {
        wire: (_label_digest(labels[wire].zero.key), _label_digest(labels[wire].one.key))
        for wire in circuit.output_wires
    }
    garbled = GarbledCircuit(
        circuit=circuit,
        gates=garbled_gates,
        output_decoding=output_decoding,
        scheme="halfgates",
    )
    return GarblerOutput(garbled=garbled, wire_labels=labels)


class GarblingScheme:
    """The pluggable garbling seam: lower a circuit, then garble it.

    Implementations must agree on the evaluator interface — labels travel as
    17-byte :class:`WireLabel` blobs over the same OTs, evaluation is
    :func:`evaluate_garbled_circuit`, and output decoding fails closed — so
    pools, sessions and transports are scheme-agnostic.
    """

    name: str = "abstract"

    def lower(self, circuit: Circuit) -> Circuit:
        """Rewrite ``circuit`` into the gate basis this scheme can garble."""
        raise NotImplementedError

    def garble(self, circuit: Circuit, rng: Optional[random.Random] = None) -> GarblerOutput:
        """Garble an (already lowered) circuit."""
        raise NotImplementedError


class ClassicScheme(GarblingScheme):
    """Point-and-permute, four rows per binary gate (the seed behavior)."""

    name = "classic"

    def lower(self, circuit: Circuit) -> Circuit:
        return circuit

    def garble(self, circuit: Circuit, rng: Optional[random.Random] = None) -> GarblerOutput:
        return garble_circuit(circuit, rng=rng)


class HalfGatesScheme(GarblingScheme):
    """Free-XOR labels + two-row half-gate AND tables over a lowered circuit."""

    name = "halfgates"

    def lower(self, circuit: Circuit) -> Circuit:
        return lower_to_xor_and(circuit)

    def garble(self, circuit: Circuit, rng: Optional[random.Random] = None) -> GarblerOutput:
        return garble_circuit_halfgates(circuit, rng=rng)


GARBLING_SCHEMES: Dict[str, GarblingScheme] = {
    scheme.name: scheme for scheme in (ClassicScheme(), HalfGatesScheme())
}


def get_scheme(name: "str | GarblingScheme") -> GarblingScheme:
    """Resolve a scheme by name (``"classic"``/``"halfgates"``) or pass through."""
    if isinstance(name, GarblingScheme):
        return name
    try:
        return GARBLING_SCHEMES[name]
    except KeyError:
        raise GarblingError(
            f"unknown garbling scheme {name!r}; known: {sorted(GARBLING_SCHEMES)}"
        ) from None


def evaluate_garbled_circuit(
    garbled: GarbledCircuit,
    garbler_labels: Sequence[WireLabel],
    evaluator_labels: Sequence[WireLabel],
) -> List[int]:
    """Evaluate a garbled circuit given active input labels.

    Args:
        garbled: the garbled circuit (tables + output decoding info).
        garbler_labels: active labels for the garbler's input wires.
        evaluator_labels: active labels for the evaluator's input wires.

    Returns:
        the decoded output bits in circuit output order.
    """
    circuit = garbled.circuit
    if len(garbler_labels) != len(circuit.garbler_inputs):
        raise GarblingError("wrong number of garbler labels")
    if len(evaluator_labels) != len(circuit.evaluator_inputs):
        raise GarblingError("wrong number of evaluator labels")

    if garbled.scheme == "halfgates":
        return _evaluate_halfgates(garbled, garbler_labels, evaluator_labels)

    # Active labels as (key, external bit); each row is decrypted with one
    # big-int XOR and re-validated exactly like ``WireLabel.from_bytes``.
    active: Dict[int, Tuple[bytes, int]] = {}
    for wire, label in zip(circuit.garbler_inputs, garbler_labels):
        active[wire] = (label.key, label.external_bit)
    for wire, label in zip(circuit.evaluator_inputs, evaluator_labels):
        active[wire] = (label.key, label.external_bit)

    for gate_index, ggate in enumerate(garbled.gates):
        if ggate.gate_type == GateType.NOT:
            active[ggate.output_wire] = active[ggate.input_wires[0]]
            continue
        key_a, external_a = active[ggate.input_wires[0]]
        key_b, external_b = active[ggate.input_wires[1]]
        row = ggate.rows[external_a * 2 + external_b]
        if len(row) != ROW_BYTES:
            raise GarblingError("serialized wire label has wrong length")
        pad = _row_pad(key_a, key_b, gate_index.to_bytes(4, "big"))
        plaintext = (pad ^ int.from_bytes(row, "big")).to_bytes(ROW_BYTES, "big")
        if plaintext[LABEL_BYTES] > 1:
            raise GarblingError("external bit must be 0 or 1")
        active[ggate.output_wire] = (plaintext[:LABEL_BYTES], plaintext[LABEL_BYTES])

    return _decode_outputs(garbled, [active[wire][0] for wire in circuit.output_wires])


def _evaluate_halfgates(
    garbled: GarbledCircuit,
    garbler_labels: Sequence[WireLabel],
    evaluator_labels: Sequence[WireLabel],
) -> List[int]:
    """Half-gates evaluation: XOR/NOT are free, AND hashes twice per gate.

    The select bit of a wire is its active key's lsb (Δ's lsb is 1 by
    construction, so the two labels of a wire always disagree on it):

    * ``W_G = H(W_a, 2j) ⊕ s_a·T_G``
    * ``W_E = H(W_b, 2j+1) ⊕ s_b·(T_E ⊕ W_a)``
    * ``W_c = W_G ⊕ W_E``

    Corrupt rows or labels surface as an unrecognized output digest — the
    same fail-closed mechanism as the classic scheme.
    """
    circuit = garbled.circuit
    active: Dict[int, int] = {}
    for wire, label in zip(circuit.garbler_inputs, garbler_labels):
        active[wire] = int.from_bytes(label.key, "big")
    for wire, label in zip(circuit.evaluator_inputs, evaluator_labels):
        active[wire] = int.from_bytes(label.key, "big")

    for gate_index, ggate in enumerate(garbled.gates):
        if ggate.gate_type == GateType.NOT:
            active[ggate.output_wire] = active[ggate.input_wires[0]]
            continue
        if ggate.gate_type == GateType.XOR:
            active[ggate.output_wire] = (
                active[ggate.input_wires[0]] ^ active[ggate.input_wires[1]]
            )
            continue
        if ggate.gate_type != GateType.AND:
            raise GarblingError(
                f"halfgates circuit contains unsupported {ggate.gate_type.value} gate"
            )
        if len(ggate.rows) != 2 or any(len(row) != LABEL_BYTES for row in ggate.rows):
            raise GarblingError("half-gates AND table must have two label-sized rows")
        w_a = active[ggate.input_wires[0]]
        w_b = active[ggate.input_wires[1]]
        t_g = int.from_bytes(ggate.rows[0], "big")
        t_e = int.from_bytes(ggate.rows[1], "big")
        tweak_g, tweak_e = _hg_tweaks(gate_index)
        w_g = _hg_hash(w_a, tweak_g) ^ (t_g if w_a & 1 else 0)
        w_e = _hg_hash(w_b, tweak_e) ^ ((t_e ^ w_a) if w_b & 1 else 0)
        active[ggate.output_wire] = w_g ^ w_e

    return _decode_outputs(
        garbled, [active[wire].to_bytes(LABEL_BYTES, "big") for wire in circuit.output_wires]
    )


@dataclass
class TwoPartyComputationResult:
    """Result of an in-process two-party garbled-circuit execution."""

    output_bits: List[int]
    #: bytes the garbler sent (garbled tables + its input labels + OT traffic).
    garbler_bytes_sent: int
    #: bytes the evaluator sent (OT choice messages).
    evaluator_bytes_sent: int


def run_two_party_computation(
    circuit: Circuit,
    garbler_bits: Sequence[int],
    evaluator_bits: Sequence[int],
    rng: Optional[random.Random] = None,
    ot_group: Optional[OTGroup] = None,
    scheme: "str | GarblingScheme" = "classic",
) -> TwoPartyComputationResult:
    """Run the full Yao protocol between two in-process parties.

    The garbler lowers + garbles the circuit under ``scheme`` and sends
    tables + its own active input labels; the evaluator obtains its input
    labels via oblivious transfer and evaluates.  Byte counts are tracked so
    the PEM network layer can charge the comparison to the two participating
    agents (Table I).
    """
    garbling = get_scheme(scheme)
    circuit = garbling.lower(circuit)
    garbler_out = garbling.garble(circuit, rng=rng)
    garbler_labels = garbler_out.garbler_input_labels(garbler_bits)

    label_pairs = garbler_out.evaluator_label_pairs()
    recovered, ot_bytes = run_oblivious_transfer(
        label_pairs, [int(b) & 1 for b in evaluator_bits], rng=rng, group=ot_group
    )
    evaluator_labels = [WireLabel.from_bytes(data) for data in recovered]

    output_bits = evaluate_garbled_circuit(garbler_out.garbled, garbler_labels, evaluator_labels)

    garbler_bytes = (
        garbler_out.garbled.serialized_size()
        + len(garbler_labels) * (LABEL_BYTES + 1)
        + ot_bytes
    )
    group = ot_group if ot_group is not None else OTGroup.default()
    evaluator_bytes = len(evaluator_bits) * ((group.p.bit_length() + 7) // 8)
    return TwoPartyComputationResult(
        output_bits=output_bits,
        garbler_bytes_sent=garbler_bytes,
        evaluator_bytes_sent=evaluator_bytes,
    )
