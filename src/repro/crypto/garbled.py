"""Yao garbled circuits: free-XOR labels and half-gate AND tables.

This is the Fairplay-style building block used by PEM's Private Market
Evaluation: two parties (here the randomly chosen seller ``H_r1`` and buyer
``H_r2``) securely compare their blinded aggregates without revealing them.

All one-labels equal the zero-label XOR a circuit-global secret ``Δ``
(Kolesnikov–Schneider free-XOR, ICALP'08), whose least-significant bit is
forced to 1 so a label's external (point-and-permute) bit is simply its
key's lsb.  XOR gates then cost zero table rows (output zero-label = XOR of
the input zero-labels; the evaluator XORs active keys), NOT is free, and
each AND gate ships exactly two rows ``(T_G, T_E)`` via the half-gates
construction (Zahur–Rosulek–Evans, EUROCRYPT'15) — the generator half
computes ``a AND π_b`` and the evaluator half ``a AND (b XOR π_b)``.  OR
gates are refused: a circuit with one must be rewritten first, each
``a OR b`` as ``(a XOR b) XOR (a AND b)``; the comparator has none.

The evaluator obtains the garbler's input labels directly and its own input
labels through 1-out-of-2 oblivious transfer (:mod:`repro.crypto.ot`), so
neither party learns the other's input.  Labels cross the OTs as 17-byte
blobs (16 key bytes, then the external bit); everywhere else a label is its
key as an ``int``, from the garbler's zero-labels to the evaluator's active
keys.

Flat representation: a circuit is compiled once (``Circuit.program``, cached
on the circuit, so once per comparison pool) into a tuple of pre-resolved
ops, and a garbled circuit's tables are **one** ``bytes`` buffer in gate
order — there are no per-gate objects.  The garbler draws an instance's
label material in one CSPRNG call and walks the program; the evaluator reads
rows by offset (``GarbledCircuit.rows`` slices the buffer for tests and
tooling).  What is left is the hash floor (``docs/ARCHITECTURE.md`` §4.5;
``tests/crypto/test_hash_budget.py`` pins the SHA-256 count).
``tests/crypto/gc_oracles.py`` keeps the gate-at-a-time original as the
oracle the garbler must match byte for byte under a seeded ``rng``.
"""

from __future__ import annotations

import hashlib
import random
import secrets
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .circuits import OP_AND, OP_NOT, OP_XOR, Circuit
from .ot import OTGroup, run_oblivious_transfer

__all__ = [
    "GarbledCircuit",
    "GarblerOutput",
    "GarblingError",
    "garble_circuit",
    "evaluate_garbled_circuit",
    "label_key",
    "run_two_party_computation",
    "TwoPartyComputationResult",
]

#: Length of a wire label's key in bytes (128-bit labels, as in Fairplay).
LABEL_BYTES = 16

#: Length of a serialized label: key + external bit.
ROW_BYTES = LABEL_BYTES + 1

#: Table bytes per AND gate (``T_G`` and ``T_E``).
_GATE_BYTES = 2 * LABEL_BYTES

#: Domain-separated SHA-256 state every half-gates hash starts from (copied
#: per call, so the prefix is absorbed once instead of concatenated each time).
_HG_BASE = hashlib.sha256(b"halfgates")


class GarblingError(Exception):
    """Raised when garbled evaluation fails (wrong labels, corrupt tables)."""


@dataclass
class GarbledCircuit:
    """Everything the evaluator needs except the input labels."""

    circuit: Circuit
    #: every garbled row, concatenated in gate order: 2 x 16 bytes per AND
    #: gate (XOR and NOT ship no rows; ``circuit.program`` locates a gate's
    #: rows by its ``and_slot``).
    tables: bytes
    #: mapping output wire -> (hash of zero-label, hash of one-label) so the
    #: evaluator can decode output bits without learning other wires.
    output_decoding: Dict[int, Tuple[bytes, bytes]]

    def rows(self, gate_index: int) -> Tuple[bytes, ...]:
        """The table rows of gate ``gate_index`` (empty when it ships none)."""
        op = self.circuit.program.ops[gate_index]
        if op.kind != OP_AND:
            return ()
        start = op.and_slot * _GATE_BYTES
        return (
            self.tables[start : start + LABEL_BYTES],
            self.tables[start + LABEL_BYTES : start + _GATE_BYTES],
        )

    def serialized_size(self) -> int:
        """Wire-format size in bytes (for bandwidth accounting).

        Free gates (XOR/NOT, no rows) ship *nothing* — the evaluator
        recomputes them from the circuit description it already holds — so
        only AND tables (2×16 bytes + an 8-byte header) and the output
        decoding cross the wire.

        Arithmetic on the compiled program's counts, not on :attr:`tables`:
        it is what an honest garbler sends, whatever a tamperer did since.
        """
        decoding = len(self.output_decoding) * 2 * 32
        return decoding + self.circuit.program.and_gate_count * (_GATE_BYTES + 8)


def label_key(serialized: bytes) -> int:
    """The key of a label received in wire format (the inverse of the OT blob)."""
    if len(serialized) != ROW_BYTES:
        raise GarblingError("serialized wire label has wrong length")
    return int.from_bytes(serialized, "big") >> 8


@dataclass
class GarblerOutput:
    """The garbler's full view: the garbled circuit, every zero-label and ``Δ``.

    ``zero_keys`` is indexed by wire id; the one-label of wire ``w`` is
    ``zero_keys[w] ^ delta``.
    """

    garbled: GarbledCircuit
    zero_keys: List[int]
    delta: int

    def key(self, wire: int, bit: int) -> int:
        """The key of ``wire``'s label for truth value ``bit``."""
        return self.zero_keys[wire] ^ (self.delta if bit else 0)

    def garbler_input_keys(self, bits: Sequence[int]) -> List[int]:
        """Select the garbler's own active input keys."""
        wires = self.garbled.circuit.garbler_inputs
        if len(bits) != len(wires):
            raise GarblingError("wrong number of garbler input bits")
        zero, delta = self.zero_keys, self.delta
        return [zero[w] ^ delta if b else zero[w] for w, b in zip(wires, bits)]

    def evaluator_label_pairs(self) -> List[Tuple[bytes, bytes]]:
        """Both labels of every evaluator input wire, serialized for the OTs."""
        zero, delta = self.zero_keys, self.delta
        pairs = []
        for wire in self.garbled.circuit.evaluator_inputs:
            # Wire format: the key, then its lsb as the external bit.
            key_0 = zero[wire]
            key_1 = key_0 ^ delta
            pairs.append(
                (
                    ((key_0 << 8) | (key_0 & 1)).to_bytes(ROW_BYTES, "big"),
                    ((key_1 << 8) | (key_1 & 1)).to_bytes(ROW_BYTES, "big"),
                )
            )
        return pairs


def _label_digest(key: bytes) -> bytes:
    return hashlib.sha256(b"output-decode" + key).digest()


def garble_circuit(circuit: Circuit, rng: Optional[random.Random] = None) -> GarblerOutput:
    """Garble an XOR/AND/NOT circuit with free-XOR + half-gates.

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
    on the CSPRNG path).

    Args:
        circuit: the plain circuit to garble (no OR gates).
        rng: optional deterministic random source (tests); defaults to the
            OS CSPRNG.

    Raises:
        GarblingError: when the circuit still contains an OR gate.
    """
    program = circuit.program
    if "OR" in program.histogram:
        raise GarblingError("garbling requires a lowered circuit (no OR gates)")
    inputs = list(circuit.garbler_inputs) + list(circuit.evaluator_inputs)
    from_bytes = int.from_bytes
    if rng is None:
        raw = secrets.token_bytes((len(inputs) + 1) * LABEL_BYTES)
        starts = range(0, len(raw), LABEL_BYTES)
        draws = [from_bytes(raw[i : i + LABEL_BYTES], "big") for i in starts]
    else:
        draws = [rng.getrandbits(8 * LABEL_BYTES) for _ in range(len(inputs) + 1)]
    delta = draws[0] | 1
    # Indexed by wire id (compiling checked every id is in range).
    zero = [0] * circuit.wire_count
    for wire, key in zip(inputs, draws[1:]):
        zero[wire] = key

    hg_base = _HG_BASE
    rows: List[bytes] = []
    for kind, in_a, in_b, out, tweak_g, tweak_e, _ in program.ops:
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
            rows.append(((t_g << 8 * LABEL_BYTES) | t_e).to_bytes(_GATE_BYTES, "big"))

    output_decoding = {
        wire: (
            _label_digest(zero[wire].to_bytes(LABEL_BYTES, "big")),
            _label_digest((zero[wire] ^ delta).to_bytes(LABEL_BYTES, "big")),
        )
        for wire in circuit.output_wires
    }
    garbled = GarbledCircuit(
        circuit=circuit, tables=b"".join(rows), output_decoding=output_decoding
    )
    return GarblerOutput(garbled, zero, delta)


def evaluate_garbled_circuit(
    garbled: GarbledCircuit,
    garbler_keys: Sequence[int],
    evaluator_keys: Sequence[int],
) -> List[int]:
    """Evaluate a garbled circuit given the active input keys.

    XOR/NOT are free and each AND hashes twice.  The select bit of a wire is
    its active key's lsb (Δ's lsb is 1 by construction, so the two labels of
    a wire always disagree on it):

    * ``W_G = H(W_a, 2j) ⊕ s_a·T_G``
    * ``W_E = H(W_b, 2j+1) ⊕ s_b·(T_E ⊕ W_a)``
    * ``W_c = W_G ⊕ W_E``

    Corrupt rows or keys surface as an unrecognized output digest, so
    evaluation fails closed.

    Args:
        garbled: the garbled circuit (tables + output decoding info).
        garbler_keys: active keys for the garbler's input wires.
        evaluator_keys: active keys for the evaluator's input wires.

    Returns:
        the decoded output bits in circuit output order.
    """
    circuit = garbled.circuit
    program = circuit.program
    tables = garbled.tables
    if len(garbler_keys) != len(circuit.garbler_inputs):
        raise GarblingError("wrong number of garbler labels")
    if len(evaluator_keys) != len(circuit.evaluator_inputs):
        raise GarblingError("wrong number of evaluator labels")
    if "OR" in program.histogram:
        raise GarblingError("garbled circuit contains unsupported OR gate")
    if len(tables) != program.and_gate_count * _GATE_BYTES:
        raise GarblingError("AND table must have two label-sized rows per gate")
    active = [0] * circuit.wire_count
    for wire, key in zip(circuit.garbler_inputs, garbler_keys):
        active[wire] = key
    for wire, key in zip(circuit.evaluator_inputs, evaluator_keys):
        active[wire] = key

    from_bytes = int.from_bytes
    hg_base = _HG_BASE
    for kind, in_a, in_b, out, tweak_g, tweak_e, and_slot in program.ops:
        if kind == OP_XOR:
            active[out] = active[in_a] ^ active[in_b]
        elif kind == OP_NOT:
            active[out] = active[in_a]
        else:
            w_a = active[in_a]
            w_b = active[in_b]
            start = and_slot * _GATE_BYTES
            state = hg_base.copy()
            state.update(w_a.to_bytes(LABEL_BYTES, "big") + tweak_g)
            w_c = from_bytes(state.digest()[:LABEL_BYTES], "big")
            state = hg_base.copy()
            state.update(w_b.to_bytes(LABEL_BYTES, "big") + tweak_e)
            w_c ^= from_bytes(state.digest()[:LABEL_BYTES], "big")
            if w_a & 1:
                w_c ^= from_bytes(tables[start : start + LABEL_BYTES], "big")
            if w_b & 1:
                w_c ^= w_a ^ from_bytes(tables[start + LABEL_BYTES : start + _GATE_BYTES], "big")
            active[out] = w_c

    outputs: List[int] = []
    for wire in circuit.output_wires:
        digest = _label_digest(active[wire].to_bytes(LABEL_BYTES, "big"))
        zero_digest, one_digest = garbled.output_decoding[wire]
        if digest == zero_digest:
            outputs.append(0)
        elif digest == one_digest:
            outputs.append(1)
        else:
            raise GarblingError(f"output wire {wire} produced an unrecognized label")
    return outputs


@dataclass
class TwoPartyComputationResult:
    """Result of an in-process two-party garbled-circuit execution."""

    output_bits: List[int]
    #: bytes the garbler sent (garbled tables + its input labels + the OT
    #: sender's ``C``, ``g^r`` and masked label pairs).
    garbler_bytes_sent: int
    #: bytes the evaluator sent (the OT receiver's keys).
    evaluator_bytes_sent: int


def run_two_party_computation(
    circuit: Circuit,
    garbler_bits: Sequence[int],
    evaluator_bits: Sequence[int],
    rng: Optional[random.Random] = None,
    ot_group: Optional[OTGroup] = None,
) -> TwoPartyComputationResult:
    """Run the full Yao protocol between two in-process parties.

    The garbler garbles the (OR-free) circuit and sends tables + its own
    active input labels; the evaluator obtains its input labels via
    oblivious transfer and evaluates.  Byte counts are tracked so the PEM
    network layer can charge the comparison to the two participating agents
    (Table I).
    """
    garbler_out = garble_circuit(circuit, rng=rng)
    garbler_keys = garbler_out.garbler_input_keys(garbler_bits)

    recovered, ot_sender_bytes, ot_receiver_bytes = run_oblivious_transfer(
        garbler_out.evaluator_label_pairs(),
        [int(b) & 1 for b in evaluator_bits],
        rng=rng,
        group=ot_group,
    )
    evaluator_keys = [label_key(data) for data in recovered]

    output_bits = evaluate_garbled_circuit(garbler_out.garbled, garbler_keys, evaluator_keys)

    garbler_bytes = (
        garbler_out.garbled.serialized_size()
        + len(garbler_keys) * ROW_BYTES
        + ot_sender_bytes
    )
    return TwoPartyComputationResult(
        output_bits=output_bits,
        garbler_bytes_sent=garbler_bytes,
        evaluator_bytes_sent=ot_receiver_bytes,
    )
