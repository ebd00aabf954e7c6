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

Flat representation: a circuit is compiled once (``Circuit.program``, cached
on the circuit, so once per comparison pool) into a tuple of pre-resolved
ops, and a garbled circuit's tables are **one** ``bytes`` buffer in gate
order — there are no per-gate objects.  Both garblers draw an instance's
label material in one CSPRNG call, both walk the program, and both
evaluators read rows by offset (``GarbledCircuit.rows`` slices the buffer for
tests and tooling).  Inside the loops a label is a raw key (``bytes`` under
``classic``, an ``int`` under ``halfgates``), never a :class:`WireLabel`;
``classic`` hashes one SHA-256 per row and encrypts the whole table with a
single big-int XOR of the joined pads against the joined serialized output
labels (16 key bytes, then the external bit).  What is left is close to the
hash floor (``docs/ARCHITECTURE.md`` §4.5; ``tests/crypto/test_hash_budget.py``
pins the SHA-256 count).  ``tests/crypto/gc_oracles.py`` keeps the
byte-at-a-time originals as the oracle both garblers must match byte for
byte under a seeded ``rng``.
"""

from __future__ import annotations

import hashlib
import random
import secrets
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .circuits import OP_AND, OP_NOT, OP_XOR, Circuit, lower_to_xor_and
from .ot import OTGroup, run_oblivious_transfer

__all__ = [
    "WireLabel",
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

#: Table bytes per binary gate under ``classic`` (four rows) and per AND gate
#: under ``halfgates`` (``T_G`` and ``T_E``).
_CLASSIC_GATE_BYTES = 4 * ROW_BYTES
_HALFGATES_GATE_BYTES = 2 * LABEL_BYTES

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


@dataclass
class GarbledCircuit:
    """Everything the evaluator needs except the input labels."""

    circuit: Circuit
    #: every garbled row, concatenated in gate order: 4 x 17 bytes per binary
    #: gate under ``classic``, 2 x 16 bytes per AND gate under ``halfgates``
    #: (gates that ship no rows take no space; ``circuit.program`` locates a
    #: gate's rows by its ``slot`` / ``and_slot``).
    tables: bytes
    #: mapping output wire -> (hash of zero-label, hash of one-label) so the
    #: evaluator can decode output bits without learning other wires.
    output_decoding: Dict[int, Tuple[bytes, bytes]]
    #: garbling scheme that produced the tables; evaluation dispatches on it.
    scheme: str = "classic"

    @property
    def row_bytes(self) -> int:
        """Width of one table row: a serialized label, or a bare key under ``halfgates``."""
        return LABEL_BYTES if self.scheme == "halfgates" else ROW_BYTES

    def rows(self, gate_index: int) -> Tuple[bytes, ...]:
        """The table rows of gate ``gate_index`` (empty when it ships none)."""
        op = self.circuit.program.ops[gate_index]
        if self.scheme == "halfgates":
            count, slot = (2 if op.kind == OP_AND else 0), op.and_slot
        else:
            count, slot = (0 if op.kind == OP_NOT else 4), op.slot
        width = self.row_bytes
        start = slot * count * width
        return tuple(
            self.tables[start + i * width : start + (i + 1) * width] for i in range(count)
        )

    def serialized_size(self) -> int:
        """Wire-format size in bytes (for bandwidth accounting).

        Under ``classic`` every gate ships its rows plus an 8-byte header
        (the seed formula, kept bit-identical).  Under ``halfgates`` free
        gates (XOR/NOT, no rows) ship *nothing* — the evaluator recomputes
        them from the circuit description it already holds — so only AND
        tables (2×16 bytes + header) and the output decoding cross the wire.

        Arithmetic on the compiled program's counts, not on :attr:`tables`:
        it is what an honest garbler sends, whatever a tamperer did since.
        """
        program = self.circuit.program
        decoding = len(self.output_decoding) * 2 * 32
        if self.scheme == "halfgates":
            return decoding + program.and_gate_count * (_HALFGATES_GATE_BYTES + 8)
        return decoding + program.binary_gate_count * _CLASSIC_GATE_BYTES + len(program.ops) * 8


class _LazyLabelDict(Dict[int, _WirePair]):
    """Wire → label pair, materialized from the garbler's raw material on access.

    The garblers keep raw per-wire material (``_M``) and the protocol only
    ever needs the input wires' labels in wire format, so nothing is built
    up front: :meth:`serialized` turns one wire's material into its two
    17-byte labels, and a :class:`WireLabel` pair is constructed — and kept
    — only when a wire is looked up.  At 64 bits eager construction would
    cost as much as the row hashing itself.
    """

    def __init__(self, material: Dict[int, _M], serialize: Callable[[_M], Tuple[bytes, bytes]]):
        super().__init__()
        self._material = material
        self._serialize = serialize

    def serialized(self, wire: int) -> Tuple[bytes, bytes]:
        """``wire``'s (zero, one) labels as :meth:`WireLabel.to_bytes` would give them."""
        return self._serialize(self._material[wire])

    def __missing__(self, wire: int) -> _WirePair:
        zero, one = self.serialized(wire)
        pair = self[wire] = _WirePair(WireLabel.from_bytes(zero), WireLabel.from_bytes(one))
        return pair


@dataclass
class GarblerOutput:
    """The garbler's full view: the garbled circuit plus all wire labels."""

    garbled: GarbledCircuit
    wire_labels: _LazyLabelDict

    def garbler_input_labels(self, bits: Sequence[int]) -> List[WireLabel]:
        """Select the garbler's own active input labels."""
        wires = self.garbled.circuit.garbler_inputs
        if len(bits) != len(wires):
            raise GarblingError("wrong number of garbler input bits")
        serialized = self.wire_labels.serialized
        return [WireLabel.from_bytes(serialized(w)[int(b) & 1]) for w, b in zip(wires, bits)]

    def evaluator_label_pairs(self) -> List[Tuple[bytes, bytes]]:
        """Both labels for every evaluator input wire (fed into the OTs)."""
        return [self.wire_labels.serialized(w) for w in self.garbled.circuit.evaluator_inputs]


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


#: One wire's secret material under ``classic``: ``(key whose external bit is
#: 0, key whose external bit is 1, permute bit)``; the label for truth value
#: ``v`` is the key at index ``v ^ permute``.
_WireMaterial = Tuple[bytes, bytes, int]


def _classic_material(wires: int, rng: Optional[random.Random]) -> List[_WireMaterial]:
    """Draw ``wires`` wires' label keys and permute bits.

    The CSPRNG path is a single ``token_bytes`` draw per instance — every
    wire's zero and one key, then one byte a wire whose low bit is its
    permute bit; the seeded path (tests, benches) keeps the historical per-wire draw
    order — permute bit, zero key, one key — so seeded garblings stay
    byte-identical.
    """
    if rng is None:
        raw = secrets.token_bytes(wires * (ROW_BYTES + LABEL_BYTES))
        keys = [raw[i : i + LABEL_BYTES] for i in range(0, 2 * wires * LABEL_BYTES, LABEL_BYTES)]
        draws = zip(keys[0::2], keys[1::2], raw[2 * wires * LABEL_BYTES :])
    else:
        draws = []
        for _ in range(wires):
            permute = rng.getrandbits(1)
            zero = rng.getrandbits(8 * LABEL_BYTES).to_bytes(LABEL_BYTES, "big")
            one = rng.getrandbits(8 * LABEL_BYTES).to_bytes(LABEL_BYTES, "big")
            draws.append((zero, one, permute))
    return [(one, zero, 1) if byte & 1 else (zero, one, 0) for zero, one, byte in draws]


def _serialize_classic(material: _WireMaterial) -> Tuple[bytes, bytes]:
    key_0, key_1, permute = material
    if permute:
        return key_1 + b"\x01", key_0 + b"\x00"
    return key_0 + b"\x00", key_1 + b"\x01"


def garble_circuit(circuit: Circuit, rng: Optional[random.Random] = None) -> GarblerOutput:
    """Garble a boolean circuit.

    Walks ``circuit.program``: all label material is drawn up front (input
    wires, then the binary gates' outputs in gate order — NOT is free and
    draws nothing), each row costs one SHA-256, and the whole table is
    encrypted at the end with one big-int XOR of the joined pads against
    the joined serialized output labels.  :class:`WireLabel` pairs are
    materialized lazily for the protocol interface.

    Args:
        circuit: the plain circuit to garble.
        rng: optional deterministic random source (tests); defaults to the
            OS CSPRNG.

    Returns:
        the garbler's output (garbled tables plus all wire-label pairs).
    """
    program = circuit.program
    inputs = list(circuit.garbler_inputs) + list(circuit.evaluator_inputs)
    draws = iter(_classic_material(len(inputs) + program.binary_gate_count, rng))
    material: Dict[int, _WireMaterial] = dict(zip(inputs, draws))

    sha256 = hashlib.sha256
    pads: List[bytes] = []
    plain: List[bytes] = []
    for kind, in_a, in_b, out, truth, tag, _, _, _, _ in program.ops:
        if kind == OP_NOT:
            # Free NOT: the output wire reuses the input keys with truth
            # values swapped, so no garbled table is required.
            key_0, key_1, permute = material[in_a]
            material[out] = (key_0, key_1, 1 - permute)
            continue
        drawn = material[out] = next(draws)
        labels = _serialize_classic(drawn)
        a_0, a_1, permute_a = material[in_a]
        b_0, b_1, permute_b = material[in_b]
        b_0 += tag
        b_1 += tag
        # Rows are ordered by the inputs' external bits; ``truth`` maps each
        # slot to the gate's output value under these two permute bits.
        pads += (
            sha256(a_0 + b_0).digest()[:ROW_BYTES],
            sha256(a_0 + b_1).digest()[:ROW_BYTES],
            sha256(a_1 + b_0).digest()[:ROW_BYTES],
            sha256(a_1 + b_1).digest()[:ROW_BYTES],
        )
        values = truth[2 * permute_a + permute_b]
        plain += (labels[values[0]], labels[values[1]], labels[values[2]], labels[values[3]])

    tables = (
        int.from_bytes(b"".join(pads), "big") ^ int.from_bytes(b"".join(plain), "big")
    ).to_bytes(program.binary_gate_count * _CLASSIC_GATE_BYTES, "big")
    output_decoding = {}
    for wire in circuit.output_wires:
        key_0, key_1, permute = material[wire]
        digests = (_label_digest(key_0), _label_digest(key_1))
        output_decoding[wire] = (digests[permute], digests[1 - permute])
    garbled = GarbledCircuit(circuit=circuit, tables=tables, output_decoding=output_decoding)
    return GarblerOutput(garbled, _LazyLabelDict(material, _serialize_classic))


# -- free-XOR + half-gates ---------------------------------------------------------------


def _serialize_key(key_int: int) -> bytes:
    """A half-gates label in wire format; its external bit is the key's lsb."""
    return ((key_int << 8) | (key_int & 1)).to_bytes(ROW_BYTES, "big")


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
    π_b·(T_E ⊕ A0)``, where ``π_w = lsb(W0)`` and ``H(W, t)`` is SHA-256 of
    ``"halfgates" ‖ W ‖ t`` truncated to one label.  ``Δ`` and the input
    wires' zero-labels are the only material drawn (one ``token_bytes`` call
    on the CSPRNG path); labels are ints inside the loop (XOR-heavy) and
    :class:`WireLabel` pairs are materialized lazily for the protocol
    interface.
    """
    program = circuit.program
    if "OR" in program.histogram:
        raise GarblingError(
            "halfgates requires a lowered circuit (run lower_to_xor_and first)"
        )
    inputs = list(circuit.garbler_inputs) + list(circuit.evaluator_inputs)
    from_bytes = int.from_bytes
    if rng is None:
        raw = secrets.token_bytes((len(inputs) + 1) * LABEL_BYTES)
        starts = range(0, len(raw), LABEL_BYTES)
        draws = [from_bytes(raw[i : i + LABEL_BYTES], "big") for i in starts]
    else:
        draws = [rng.getrandbits(8 * LABEL_BYTES) for _ in range(len(inputs) + 1)]
    delta = draws[0] | 1
    zero: Dict[int, int] = dict(zip(inputs, draws[1:]))

    hg_base = _HG_BASE
    rows: List[bytes] = []
    for kind, in_a, in_b, out, _, _, tweak_g, tweak_e, _, _ in program.ops:
        if kind == OP_XOR:
            # Free XOR: zero-labels XOR; Δ cancels on matching one-labels.
            zero[out] = zero[in_a] ^ zero[in_b]
        elif kind == OP_NOT:
            # Free NOT: the output zero-label is the input one-label.
            zero[out] = zero[in_a] ^ delta
        else:
            a0 = zero[in_a]
            b0 = zero[in_b]
            state = hg_base.copy()
            state.update(a0.to_bytes(LABEL_BYTES, "big") + tweak_g)
            h_a0 = from_bytes(state.digest()[:LABEL_BYTES], "big")
            state = hg_base.copy()
            state.update((a0 ^ delta).to_bytes(LABEL_BYTES, "big") + tweak_g)
            h_a1 = from_bytes(state.digest()[:LABEL_BYTES], "big")
            state = hg_base.copy()
            state.update(b0.to_bytes(LABEL_BYTES, "big") + tweak_e)
            h_b0 = from_bytes(state.digest()[:LABEL_BYTES], "big")
            state = hg_base.copy()
            state.update((b0 ^ delta).to_bytes(LABEL_BYTES, "big") + tweak_e)
            h_b1 = from_bytes(state.digest()[:LABEL_BYTES], "big")
            t_g = h_a0 ^ h_a1 ^ (delta if b0 & 1 else 0)
            t_e = h_b0 ^ h_b1 ^ a0
            w_g0 = h_a0 ^ (t_g if a0 & 1 else 0)
            w_e0 = h_b0 ^ ((t_e ^ a0) if b0 & 1 else 0)
            zero[out] = w_g0 ^ w_e0
            rows.append(((t_g << 8 * LABEL_BYTES) | t_e).to_bytes(_HALFGATES_GATE_BYTES, "big"))

    output_decoding = {
        wire: (
            _label_digest(zero[wire].to_bytes(LABEL_BYTES, "big")),
            _label_digest((zero[wire] ^ delta).to_bytes(LABEL_BYTES, "big")),
        )
        for wire in circuit.output_wires
    }
    garbled = GarbledCircuit(
        circuit=circuit,
        tables=b"".join(rows),
        output_decoding=output_decoding,
        scheme="halfgates",
    )
    labels = _LazyLabelDict(zero, lambda z: (_serialize_key(z), _serialize_key(z ^ delta)))
    return GarblerOutput(garbled, labels)


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

    program = circuit.program
    tables = garbled.tables
    if len(tables) != program.binary_gate_count * _CLASSIC_GATE_BYTES:
        raise GarblingError("serialized wire label has wrong length")
    # Active labels as (key, external bit); each row is decrypted with one
    # big-int XOR and re-validated exactly like ``WireLabel.from_bytes``.
    active: Dict[int, Tuple[bytes, int]] = {}
    for wire, label in zip(circuit.garbler_inputs, garbler_labels):
        active[wire] = (label.key, label.external_bit)
    for wire, label in zip(circuit.evaluator_inputs, evaluator_labels):
        active[wire] = (label.key, label.external_bit)

    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    for kind, in_a, in_b, out, _, tag, _, _, slot, _ in program.ops:
        if kind == OP_NOT:
            active[out] = active[in_a]
            continue
        key_a, external_a = active[in_a]
        key_b, external_b = active[in_b]
        start = slot * _CLASSIC_GATE_BYTES + (2 * external_a + external_b) * ROW_BYTES
        plaintext = (
            from_bytes(sha256(key_a + key_b + tag).digest()[:ROW_BYTES], "big")
            ^ from_bytes(tables[start : start + ROW_BYTES], "big")
        ).to_bytes(ROW_BYTES, "big")
        if plaintext[LABEL_BYTES] > 1:
            raise GarblingError("external bit must be 0 or 1")
        active[out] = (plaintext[:LABEL_BYTES], plaintext[LABEL_BYTES])

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
    program = circuit.program
    tables = garbled.tables
    if "OR" in program.histogram:
        raise GarblingError("halfgates circuit contains unsupported OR gate")
    if len(tables) != program.and_gate_count * _HALFGATES_GATE_BYTES:
        raise GarblingError("half-gates AND table must have two label-sized rows")
    from_bytes = int.from_bytes
    active: Dict[int, int] = {}
    for wire, label in zip(circuit.garbler_inputs, garbler_labels):
        active[wire] = from_bytes(label.key, "big")
    for wire, label in zip(circuit.evaluator_inputs, evaluator_labels):
        active[wire] = from_bytes(label.key, "big")

    hg_base = _HG_BASE
    for kind, in_a, in_b, out, _, _, tweak_g, tweak_e, _, and_slot in program.ops:
        if kind == OP_XOR:
            active[out] = active[in_a] ^ active[in_b]
        elif kind == OP_NOT:
            active[out] = active[in_a]
        else:
            w_a = active[in_a]
            w_b = active[in_b]
            start = and_slot * _HALFGATES_GATE_BYTES
            state = hg_base.copy()
            state.update(w_a.to_bytes(LABEL_BYTES, "big") + tweak_g)
            w_c = from_bytes(state.digest()[:LABEL_BYTES], "big")
            state = hg_base.copy()
            state.update(w_b.to_bytes(LABEL_BYTES, "big") + tweak_e)
            w_c ^= from_bytes(state.digest()[:LABEL_BYTES], "big")
            if w_a & 1:
                w_c ^= from_bytes(tables[start : start + LABEL_BYTES], "big")
            if w_b & 1:
                w_c ^= w_a ^ from_bytes(
                    tables[start + LABEL_BYTES : start + _HALFGATES_GATE_BYTES], "big"
                )
            active[out] = w_c

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
