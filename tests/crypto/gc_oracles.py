"""Reference oracles: the pre-PR-16 bit- and byte-at-a-time GC/OT code.

``repro.crypto.otext`` and ``repro.crypto.garbled`` now work word-wide
(big-int XOR, one string transpose per matrix).  The loops they replaced
live on here, verbatim, as the specification the fast code is held to:
for seeded randomness the product code must reproduce these functions'
output byte for byte (``test_gc_oracles.py``).  Nothing outside the test
suite may import this module.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Tuple

from repro.crypto.circuits import Circuit, GateType, TRUTH_TABLES
from repro.crypto.garbled import LABEL_BYTES
from repro.crypto.otext import BaseOTCorrelation

# -- OT extension ------------------------------------------------------------------


def oracle_prg(seed: bytes, tag: bytes, length: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(seed + tag + counter.to_bytes(4, "big")).digest()
        counter += 1
    return out[:length]


def _bits_from_bytes(data: bytes, count: int) -> List[int]:
    return [(data[i // 8] >> (i % 8)) & 1 for i in range(count)]


def _hash_pad(row: bytes, tag: bytes, index: int, length: int) -> bytes:
    return oracle_prg(
        hashlib.sha256(b"iknp-pad" + tag + index.to_bytes(4, "big") + row).digest(),
        b"expand",
        length,
    )


def oracle_xor(a: bytes, b: bytes) -> bytes:
    """Byte-wise XOR (truncating, like the ``zip`` it was written with)."""
    return bytes(x ^ y for x, y in zip(a, b))


def oracle_derive_batch(
    correlation: BaseOTCorrelation,
    count: int,
    msg_len: int,
    instance: bytes,
    choice_rng: random.Random,
) -> Dict[str, object]:
    """The parent's bit-list ``derive_batch``, returning the batch's fields."""
    kappa = correlation.kappa
    choices = tuple(choice_rng.getrandbits(1) for _ in range(count))
    choice_bytes = bytes(
        sum(choices[i + k] << k for k in range(min(8, count - i)))
        for i in range(0, count, 8)
    )

    column_len = (count + 7) // 8
    t_columns: List[List[int]] = []
    u_columns: List[bytes] = []
    for i, (k0, k1) in enumerate(correlation.receiver_seed_pairs):
        tag = b"col" + instance + i.to_bytes(4, "big")
        g0 = oracle_prg(k0, tag, column_len)
        g1 = oracle_prg(k1, tag, column_len)
        t_columns.append(_bits_from_bytes(g0, count))
        u_columns.append(
            oracle_xor(oracle_xor(g0, g1), choice_bytes.ljust(column_len, b"\x00"))
        )

    q_columns: List[List[int]] = []
    for i in range(kappa):
        s_i = correlation.sender_choice[i]
        tag = b"col" + instance + i.to_bytes(4, "big")
        g = _bits_from_bytes(oracle_prg(correlation.sender_seeds[i], tag, column_len), count)
        if s_i:
            u_bits = _bits_from_bytes(u_columns[i], count)
            g = [g_bit ^ u_bit for g_bit, u_bit in zip(g, u_bits)]
        q_columns.append(g)

    def row_bytes(columns: List[List[int]], j: int) -> bytes:
        return bytes(
            sum(columns[i + k][j] << k for k in range(min(8, kappa - i)))
            for i in range(0, kappa, 8)
        )

    s_row = bytes(
        sum(correlation.sender_choice[i + k] << k for k in range(min(8, kappa - i)))
        for i in range(0, kappa, 8)
    )

    receiver_pads: List[bytes] = []
    sender_pad_pairs: List[Tuple[bytes, bytes]] = []
    for j in range(count):
        q_j = row_bytes(q_columns, j)
        t_j = row_bytes(t_columns, j)
        pad0 = _hash_pad(q_j, instance, j, msg_len)
        pad1 = _hash_pad(oracle_xor(q_j, s_row), instance, j, msg_len)
        sender_pad_pairs.append((pad0, pad1))
        receiver_pads.append(_hash_pad(t_j, instance, j, msg_len))

    return {
        "random_choices": choices,
        "receiver_pads": tuple(receiver_pads),
        "sender_pad_pairs": tuple(sender_pad_pairs),
        "extension_bytes": kappa * column_len,
    }


# -- garbling ----------------------------------------------------------------------

#: wire -> ((zero key, zero external bit), (one key, one external bit))
OracleLabels = Dict[int, Tuple[Tuple[bytes, int], Tuple[bytes, int]]]


def oracle_encrypt_row(key_a: bytes, key_b: bytes, gate_index: int, payload: bytes) -> bytes:
    """Byte-wise dual-key one-time pad (the parent's ``_encrypt_row``)."""
    pad = hashlib.sha256(key_a + key_b + gate_index.to_bytes(4, "big")).digest()
    assert len(payload) <= len(pad)
    return bytes(p ^ q for p, q in zip(payload, pad[: len(payload)]))


def _label_digest(key: bytes) -> bytes:
    return hashlib.sha256(b"output-decode" + key).digest()


def _decoding(circuit: Circuit, labels: OracleLabels) -> Dict[int, Tuple[bytes, bytes]]:
    return {
        wire: (_label_digest(labels[wire][0][0]), _label_digest(labels[wire][1][0]))
        for wire in circuit.output_wires
    }


def oracle_garble_classic(
    circuit: Circuit, rng: random.Random
) -> Tuple[List[Tuple[bytes, ...]], Dict[int, Tuple[bytes, bytes]], OracleLabels]:
    """The parent's classic garbler: ``(rows per gate, output decoding, labels)``."""
    labels: OracleLabels = {}

    def random_label() -> bytes:
        return rng.getrandbits(8 * LABEL_BYTES).to_bytes(LABEL_BYTES, "big")

    def ensure_labels(wire: int):
        if wire not in labels:
            permute = rng.getrandbits(1)
            labels[wire] = ((random_label(), permute), (random_label(), 1 - permute))
        return labels[wire]

    for wire in list(circuit.garbler_inputs) + list(circuit.evaluator_inputs):
        ensure_labels(wire)

    gate_rows: List[Tuple[bytes, ...]] = []
    for gate_index, gate in enumerate(circuit.gates):
        if gate.gate_type == GateType.NOT:
            zero, one = ensure_labels(gate.input_wires[0])
            labels[gate.output_wire] = (one, zero)
            gate_rows.append(())
            continue
        pair_a = ensure_labels(gate.input_wires[0])
        pair_b = ensure_labels(gate.input_wires[1])
        pair_out = ensure_labels(gate.output_wire)
        table = TRUTH_TABLES[gate.gate_type]
        rows: List[bytes] = [b""] * 4
        for bit_a in (0, 1):
            for bit_b in (0, 1):
                key_a, ext_a = pair_a[bit_a]
                key_b, ext_b = pair_b[bit_b]
                out_key, out_ext = pair_out[table[(bit_a, bit_b)]]
                rows[ext_a * 2 + ext_b] = oracle_encrypt_row(
                    key_a, key_b, gate_index, out_key + bytes([out_ext])
                )
        gate_rows.append(tuple(rows))
    return gate_rows, _decoding(circuit, labels), labels


def _hg_hash(key_int: int, tweak: int) -> int:
    digest = hashlib.sha256(
        b"halfgates" + key_int.to_bytes(LABEL_BYTES, "big") + tweak.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest[:LABEL_BYTES], "big")


def oracle_garble_halfgates(
    circuit: Circuit, rng: random.Random
) -> Tuple[List[Tuple[bytes, ...]], Dict[int, Tuple[bytes, bytes]], OracleLabels]:
    """The parent's half-gates garbler, same return shape as the classic oracle."""
    delta = rng.getrandbits(8 * LABEL_BYTES) | 1
    zero: Dict[int, int] = {}

    def ensure_zero(wire: int) -> int:
        if wire not in zero:
            zero[wire] = rng.getrandbits(8 * LABEL_BYTES)
        return zero[wire]

    for wire in list(circuit.garbler_inputs) + list(circuit.evaluator_inputs):
        ensure_zero(wire)

    gate_rows: List[Tuple[bytes, ...]] = []
    for gate_index, gate in enumerate(circuit.gates):
        if gate.gate_type == GateType.NOT:
            zero[gate.output_wire] = ensure_zero(gate.input_wires[0]) ^ delta
            rows: Tuple[bytes, ...] = ()
        elif gate.gate_type == GateType.XOR:
            a0 = ensure_zero(gate.input_wires[0])
            b0 = ensure_zero(gate.input_wires[1])
            zero[gate.output_wire] = a0 ^ b0
            rows = ()
        else:
            assert gate.gate_type == GateType.AND
            a0 = ensure_zero(gate.input_wires[0])
            b0 = ensure_zero(gate.input_wires[1])
            p_a, p_b = a0 & 1, b0 & 1
            h_a0 = _hg_hash(a0, 2 * gate_index)
            h_a1 = _hg_hash(a0 ^ delta, 2 * gate_index)
            h_b0 = _hg_hash(b0, 2 * gate_index + 1)
            h_b1 = _hg_hash(b0 ^ delta, 2 * gate_index + 1)
            t_g = h_a0 ^ h_a1 ^ (delta if p_b else 0)
            t_e = h_b0 ^ h_b1 ^ a0
            w_g0 = h_a0 ^ (t_g if p_a else 0)
            w_e0 = h_b0 ^ ((t_e ^ a0) if p_b else 0)
            zero[gate.output_wire] = w_g0 ^ w_e0
            rows = (t_g.to_bytes(LABEL_BYTES, "big"), t_e.to_bytes(LABEL_BYTES, "big"))
        gate_rows.append(rows)

    def label(key_int: int) -> Tuple[bytes, int]:
        return key_int.to_bytes(LABEL_BYTES, "big"), key_int & 1

    labels: OracleLabels = {w: (label(z), label(z ^ delta)) for w, z in zero.items()}
    return gate_rows, _decoding(circuit, labels), labels
