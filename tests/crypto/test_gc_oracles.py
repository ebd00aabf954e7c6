"""The word-wide GC/OT code against its bit- and byte-at-a-time oracles.

``gc_oracles.py`` holds the loops ``otext.derive_batch``, ``otext._xor``,
``otext._prg`` and the garbler were written with before they went
word-wide.  For seeded randomness the product code must reproduce the
oracles' bytes exactly — same rows, same pads, same labels — and it must
still simulate *both* OT parties: a broken base-OT correlation has to show
up as mismatched pads and a fail-closed comparison, not be papered over by
deriving the receiver's pads from the sender's.  The retired classic
garbler over the retired comparator is the outcome reference.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gc_oracles import (
    oracle_build_greater_than_circuit,
    oracle_derive_batch,
    oracle_evaluate_classic,
    oracle_garble_classic,
    oracle_garble_halfgates,
    oracle_prg,
    oracle_transfer,
    oracle_transpose,
    oracle_xor,
)
from repro.chaos import tamper_prepared_comparison
from repro.crypto import otext
from repro.crypto.circuits import (
    CircuitBuilder,
    GateType,
    build_adder_circuit,
    build_greater_than_circuit,
    int_to_bits,
    lower_to_xor_and,
)
from repro.crypto.garbled import GarblingError, evaluate_garbled_circuit, garble_circuit
from repro.crypto.gc_pool import ComparisonError, PreparedComparison
from repro.crypto.otext import OTExtensionError, derive_batch, establish_correlation

# -- otext primitives --------------------------------------------------------------


@given(st.binary(max_size=70), st.data())
def test_xor_matches_bytewise_oracle(a, data):
    b = data.draw(st.binary(min_size=len(a), max_size=len(a)))
    assert otext._xor(a, b) == oracle_xor(a, b)


@pytest.mark.parametrize("lengths", [(16, 17), (17, 16), (0, 1), (33, 32)])
def test_xor_fails_closed_on_length_mismatch(lengths):
    """The byte-wise ``zip`` silently truncated to the shorter operand."""
    a, b = (bytes(range(n)) for n in lengths)
    with pytest.raises(OTExtensionError):
        otext._xor(a, b)


@given(st.binary(max_size=20), st.binary(max_size=20), st.integers(0, 200))
def test_prg_matches_quadratic_oracle(seed, tag, length):
    stream = otext._prg(seed, tag, length)
    assert stream == oracle_prg(seed, tag, length)
    assert len(stream) == length


def test_transfer_rejects_a_short_pad(ot_correlation):
    """A truncated pad must raise, never hand back a short label."""
    batch = derive_batch(ot_correlation, 3, 17, b"short-pad", random.Random(1))
    batch.receiver_pads = tuple(pad[:-1] for pad in batch.receiver_pads)
    pairs = [(bytes(17), bytes([1] * 17))] * 3
    with pytest.raises(OTExtensionError):
        batch.transfer(pairs, [0, 1, 0])


def _count_csprng_draws(monkeypatch):
    """Record the size of every ``secrets.token_bytes`` call ``otext`` makes."""
    draws = []
    real = otext.secrets.token_bytes

    def token_bytes(size):
        draws.append(size)
        return real(size)

    monkeypatch.setattr(otext.secrets, "token_bytes", token_bytes)
    return draws


def test_csprng_batch_draws_its_choice_bits_once(monkeypatch, ot_correlation):
    """One draw for all ``count`` choice bits, not one ``urandom`` syscall per bit."""
    draws = _count_csprng_draws(monkeypatch)
    batches = [derive_batch(ot_correlation, count, 17, b"csprng") for count in (64, 13, 64)]
    assert draws == [8, 2, 8]
    for batch in batches:
        assert len(batch.random_choices) == batch.count
        assert set(batch.random_choices) <= {0, 1}
        for c, pad, pair in zip(batch.random_choices, batch.receiver_pads, batch.sender_pad_pairs):
            assert pad == pair[c] and pad != pair[1 - c]
    assert batches[0].random_choices != batches[2].random_choices


def test_csprng_correlation_draws_seeds_and_choices_once(monkeypatch):
    """2 x kappa seeds in one draw, the choice vector in another (was 4 096 + 128 draws)."""
    draws = _count_csprng_draws(monkeypatch)
    correlation = establish_correlation(13)
    assert draws[:2] == [2 * 13 * otext.SEED_BYTES, 2]
    seeds = [seed for pair in correlation.receiver_seed_pairs for seed in pair]
    assert len(set(seeds)) == 26 and all(len(seed) == otext.SEED_BYTES for seed in seeds)
    assert len(correlation.sender_choice) == 13 and set(correlation.sender_choice) <= {0, 1}
    for s_i, seed, pair in zip(
        correlation.sender_choice, correlation.sender_seeds, correlation.receiver_seed_pairs
    ):
        assert seed == pair[s_i]


@given(st.integers(min_value=0, max_value=2**70), st.integers(min_value=1, max_value=70))
def test_unpack_bits_inverts_pack_bits(value, count):
    bits = otext._unpack_bits(value, count)
    assert len(bits) == count
    assert otext._pack_bits(bits) == value & ((1 << count) - 1)


# -- derive_batch ------------------------------------------------------------------

#: kappas on and off byte boundaries (row length 1, 2, 3, 10 and 16 bytes).
KAPPAS = (1, 13, 16, 19, 80, 128)


@pytest.fixture(scope="module")
def correlations():
    return {kappa: establish_correlation(kappa, rng=random.Random(kappa)) for kappa in KAPPAS}


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.sampled_from(KAPPAS),
    count=st.integers(min_value=1, max_value=70),
    msg_len=st.sampled_from((1, 17, 40)),
    instance=st.binary(max_size=16),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_derive_batch_matches_bit_list_oracle(correlations, kappa, count, msg_len, instance, seed):
    correlation = correlations[kappa]
    batch = derive_batch(correlation, count, msg_len, instance, random.Random(seed))
    expected = oracle_derive_batch(correlation, count, msg_len, instance, random.Random(seed))
    assert (batch.count, batch.msg_len) == (count, msg_len)
    for name, value in expected.items():
        assert getattr(batch, name) == value, name


def test_derive_batch_at_the_protocol_shape(correlations):
    """The exact shape ``live_gc_128`` runs: kappa 128, 64 transfers, 17 bytes."""
    batch = derive_batch(correlations[128], 64, 17, b"\x07" * 16, random.Random(3))
    expected = oracle_derive_batch(correlations[128], 64, 17, b"\x07" * 16, random.Random(3))
    assert batch.sender_pad_pairs == expected["sender_pad_pairs"]
    assert batch.receiver_pads == expected["receiver_pads"]
    for c, pad, pair in zip(batch.random_choices, batch.receiver_pads, batch.sender_pad_pairs):
        assert pad == pair[c] and pad != pair[1 - c]


def test_derive_batch_beyond_one_prg_block(correlations):
    """Over 256 transfers a column outgrows one SHA-256 block of PRG output."""
    batch = derive_batch(correlations[13], 300, 17, b"long", random.Random(5))
    expected = oracle_derive_batch(correlations[13], 300, 17, b"long", random.Random(5))
    for name, value in expected.items():
        assert getattr(batch, name) == value, name


@pytest.mark.parametrize("kappa", KAPPAS)
def test_matrix_transpose_matches_bit_loop(kappa):
    """``unpackbits`` / ``packbits`` rows equal the bit-at-a-time transpose."""
    rng = random.Random(kappa)
    for count in (1, 7, 8, 9, 64, 70):
        column_len = (count + 7) // 8
        columns = [bytes(rng.getrandbits(8) for _ in range(column_len)) for _ in range(kappa)]
        matrix = np.frombuffer(b"".join(columns), np.uint8).reshape(kappa, column_len)
        rows = otext._rows(matrix, count)
        assert [row.tobytes() for row in rows] == oracle_transpose(columns, count)


@pytest.mark.parametrize("count", [1, 7, 8, 9, 64, 65])
def test_joined_transfer_matches_per_transfer_oracle(correlations, count):
    """One big-int XOR per side of the OT equals the per-transfer derandomization."""
    rng = random.Random(count)
    batch = derive_batch(correlations[128], count, 17, b"joined", random.Random(count))
    pairs = [(rng.randbytes(17), rng.randbytes(17)) for _ in range(count)]
    choices = [rng.getrandbits(1) for _ in range(count)]
    expected = oracle_transfer(
        batch.random_choices, batch.sender_pad_pairs, batch.receiver_pads, pairs, choices
    )
    recovered, online_bytes = batch.transfer(pairs, choices)
    assert recovered == expected == [pair[bit] for pair, bit in zip(pairs, choices)]
    assert online_bytes == (count + 7) // 8 + 2 * count * 17


# -- garbler ----------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    build=st.sampled_from((build_greater_than_circuit, build_adder_circuit)),
    bit_width=st.sampled_from((1, 8, 64)),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_seeded_garbling_matches_parent_byte_for_byte(build, bit_width, seed):
    circuit = lower_to_xor_and(build(bit_width))
    out = garble_circuit(circuit, rng=random.Random(seed))
    gate_rows, decoding, labels = oracle_garble_halfgates(circuit, random.Random(seed))

    assert out.garbled.tables == b"".join(map(b"".join, gate_rows))
    assert [out.garbled.rows(i) for i in range(len(circuit.gates))] == gate_rows
    assert out.garbled.output_decoding == decoding
    for wire, (zero, one) in labels.items():
        for bit, (key, external_bit) in enumerate((zero, one)):
            assert out.key(wire, bit) == int.from_bytes(key, "big")
            assert out.key(wire, bit) & 1 == external_bit
    # The seed formula: rows + 8-byte header per AND gate + 64 B per output.
    shipped = [rows for rows in gate_rows if rows]
    assert out.garbled.serialized_size() == (
        sum(sum(map(len, rows)) + 8 for rows in shipped) + 64 * len(circuit.output_wires)
    )


@st.composite
def small_circuits(draw):
    """A random AND/OR/XOR/NOT DAG: 2-6 inputs, up to 12 gates, 1-3 outputs."""
    builder = CircuitBuilder()
    wires = [builder.garbler_input() for _ in range(draw(st.integers(1, 3)))]
    wires += [builder.evaluator_input() for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("and", "or", "xor", "not")))
        inputs = [draw(st.sampled_from(wires)) for _ in range(1 if kind == "not" else 2)]
        wires.append(getattr(builder, f"gate_{kind}")(*inputs))
    outputs = st.lists(st.sampled_from(wires), min_size=1, max_size=3, unique=True)
    return builder.build(draw(outputs))


def _garbled_run(draw, circuit, seed):
    """Lower and garble ``circuit``; draw inputs; return what evaluation needs."""
    out = garble_circuit(lower_to_xor_and(circuit), rng=random.Random(seed))
    garbler_bits = [draw(st.integers(0, 1)) for _ in circuit.garbler_inputs]
    evaluator_bits = [draw(st.integers(0, 1)) for _ in circuit.evaluator_inputs]
    evaluator_keys = [
        out.key(wire, bit) for wire, bit in zip(circuit.evaluator_inputs, evaluator_bits)
    ]
    expected = circuit.evaluate(garbler_bits, evaluator_bits)
    return out, out.garbler_input_keys(garbler_bits), evaluator_keys, expected


@settings(max_examples=80, deadline=None)
@given(circuit=small_circuits(), seed=st.integers(min_value=0, max_value=2**32), data=st.data())
def test_flat_garbler_matches_oracle_on_random_dags(circuit, seed, data):
    out, garbler_keys, evaluator_keys, expected = _garbled_run(data.draw, circuit, seed)
    gate_rows, decoding, labels = oracle_garble_halfgates(
        lower_to_xor_and(circuit), random.Random(seed)
    )

    assert out.garbled.tables == b"".join(map(b"".join, gate_rows))
    assert out.garbled.output_decoding == decoding
    pairs = out.evaluator_label_pairs()
    for wire, pair in zip(circuit.evaluator_inputs, pairs):
        (zero_key, zero_bit), (one_key, one_bit) = labels[wire]
        assert pair == (zero_key + bytes([zero_bit]), one_key + bytes([one_bit]))
    assert evaluate_garbled_circuit(out.garbled, garbler_keys, evaluator_keys) == expected


@settings(max_examples=120, deadline=None)
@given(circuit=small_circuits(), seed=st.integers(min_value=0, max_value=2**32), data=st.data())
def test_tampered_table_buffer_never_flips_an_output(circuit, seed, data):
    """Any single-bit flip, truncation or extension: ``GarblingError`` or the plaintext bits."""
    out, garbler_keys, evaluator_keys, expected = _garbled_run(data.draw, circuit, seed)
    tables = out.garbled.tables
    kinds = ("flip", "truncate", "extend") if tables else ("extend",)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "flip":
        bit = data.draw(st.integers(0, 8 * len(tables) - 1))
        flipped = bytearray(tables)
        flipped[bit // 8] ^= 1 << (bit % 8)
        out.garbled.tables = bytes(flipped)
    elif kind == "truncate":
        out.garbled.tables = tables[: data.draw(st.integers(0, len(tables) - 1))]
    else:
        out.garbled.tables = tables + data.draw(st.binary(min_size=1, max_size=40))
    size_before = out.garbled.serialized_size()
    try:
        result = evaluate_garbled_circuit(out.garbled, garbler_keys, evaluator_keys)
    except GarblingError:
        pass
    else:
        assert kind == "flip"  # a wrong-length buffer is always rejected
        assert result == expected
    assert out.garbled.serialized_size() == size_before


#: ``serialized_size`` of the garbled comparator at the two widths the
#: protocol runs: 64 AND gates x (32 B rows + 8 B header) + 64 B of output
#: decoding at 64 bits, 32 x 40 + 64 at 32 bits.
PINNED_TABLE_BYTES = {64: 2_624, 32: 1_344}


@pytest.mark.parametrize("bit_width", range(1, 65))
def test_serialized_size_equals_the_per_gate_formula(bit_width):
    """Rows + an 8-byte header per AND gate + 64 B per output, at every width."""
    circuit = build_greater_than_circuit(bit_width)
    garbled = garble_circuit(circuit, rng=random.Random(bit_width)).garbled
    per_gate = [2 * 16 + 8 for g in circuit.gates if g.gate_type == GateType.AND]
    assert len(per_gate) == bit_width
    assert garbled.serialized_size() == sum(per_gate) + 64 * len(circuit.output_wires)
    assert len(garbled.tables) == sum(per_gate) - 8 * len(per_gate)
    if bit_width in PINNED_TABLE_BYTES:
        assert garbled.serialized_size() == PINNED_TABLE_BYTES[bit_width]


def test_csprng_garbling_draws_distinct_material():
    """The batched ``token_bytes`` draw: fresh labels per wire and per call."""
    circuit = build_greater_than_circuit(8)
    first, second = garble_circuit(circuit), garble_circuit(circuit)
    assert first.delta & 1 and second.delta & 1 and first.delta != second.delta
    keys = set()
    for out in (first, second):
        for wire in list(circuit.garbler_inputs) + list(circuit.evaluator_inputs):
            zero, one = out.key(wire, 0), out.key(wire, 1)
            assert (zero ^ one) & 1 == 1  # the external bits always differ
            keys.update((zero, one))
    assert len(keys) == 2 * 2 * 16


# -- the retired classic garbler as outcome reference ------------------------------


@pytest.mark.parametrize("bit_width", [1, 2, 3, 4, 5, 6])
def test_comparator_agrees_with_the_retired_comparator_in_the_clear(bit_width):
    """Plain evaluation, every input pair: both circuits compute ``a > b``."""
    new = build_greater_than_circuit(bit_width)
    old = oracle_build_greater_than_circuit(bit_width)
    assert old.and_gate_count == 3 * bit_width - 2 and new.and_gate_count == bit_width
    for a in range(1 << bit_width):
        for b in range(1 << bit_width):
            bits_a, bits_b = int_to_bits(a, bit_width), int_to_bits(b, bit_width)
            assert new.evaluate(bits_a, bits_b) == old.evaluate(bits_a, bits_b) == [int(a > b)]


@pytest.mark.parametrize("bit_width", [1, 2, 3, 4, 5, 6])
def test_comparator_agrees_with_the_classic_oracle_exhaustively(bit_width):
    """Every input pair: the new comparator under half-gates, the retired one under classic."""
    new = build_greater_than_circuit(bit_width)
    old = oracle_build_greater_than_circuit(bit_width)
    out = garble_circuit(new, rng=random.Random(bit_width))
    gate_rows, decoding, labels = oracle_garble_classic(old, random.Random(bit_width))
    for a in range(1 << bit_width):
        for b in range(1 << bit_width):
            bits_a, bits_b = int_to_bits(a, bit_width), int_to_bits(b, bit_width)
            keys_b = [out.key(w, bit) for w, bit in zip(new.evaluator_inputs, bits_b)]
            got = evaluate_garbled_circuit(out.garbled, out.garbler_input_keys(bits_a), keys_b)
            want = oracle_evaluate_classic(old, gate_rows, decoding, labels, bits_a, bits_b)
            assert got == want == [int(a > b)]


@pytest.mark.parametrize("bit_width", [32, 64])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
def test_comparator_agrees_with_the_classic_oracle(bit_width, data, seed):
    """Random, equal and extreme operands at the protocol widths."""
    top = (1 << bit_width) - 1
    operand = st.one_of(st.integers(0, top), st.sampled_from((0, 1, top - 1, top)))
    a = data.draw(operand)
    b = data.draw(st.one_of(operand, st.just(a)))
    new = build_greater_than_circuit(bit_width)
    old = oracle_build_greater_than_circuit(bit_width)
    out = garble_circuit(new, rng=random.Random(seed))
    gate_rows, decoding, labels = oracle_garble_classic(old, random.Random(seed))
    bits_a, bits_b = int_to_bits(a, bit_width), int_to_bits(b, bit_width)
    keys_b = [out.key(w, bit) for w, bit in zip(new.evaluator_inputs, bits_b)]
    got = evaluate_garbled_circuit(out.garbled, out.garbler_input_keys(bits_a), keys_b)
    want = oracle_evaluate_classic(old, gate_rows, decoding, labels, bits_a, bits_b)
    assert got == want == [int(a > b)]


# -- both parties are still simulated ----------------------------------------------


def _corrupt_sender_seed(correlation, *indices):
    """The extension sender recovered the wrong seed from each base OT in ``indices``."""
    seeds = list(correlation.sender_seeds)
    for index in indices:
        seeds[index] = bytes(b ^ 0xFF for b in seeds[index])
    return dataclasses.replace(correlation, sender_seeds=tuple(seeds))


@pytest.mark.parametrize("index", [0, 7, 15])
def test_broken_correlation_breaks_the_pads(ot_correlation, index):
    broken = _corrupt_sender_seed(ot_correlation, index)
    batch = derive_batch(broken, 64, 17, b"broken", random.Random(4))
    mismatched = [
        j
        for j, (c, pad, pair) in enumerate(
            zip(batch.random_choices, batch.receiver_pads, batch.sender_pad_pairs)
        )
        if pad != pair[c]
    ]
    # One wrong column flips bit ``index`` of about half the sender's rows.
    assert mismatched
    healthy = derive_batch(ot_correlation, 64, 17, b"broken", random.Random(4))
    assert healthy.receiver_pads == batch.receiver_pads  # the receiver's side is its own


@pytest.mark.parametrize("bit_width", [8, 32, 64])
def test_comparison_on_a_broken_correlation_fails_closed(ot_correlation, bit_width):
    circuit = build_greater_than_circuit(bit_width)
    a, b = (1 << bit_width) - 3, 123 % (1 << bit_width)
    # One wrong column corrupts about half of the transferred labels, and
    # the instance's fresh CSPRNG tag decides which half: at 8 bits all
    # eight miss it about once in 2^8 instances.  Whatever the draw, an
    # instance aborts exactly when a transferred label is wrong (a wrong
    # label can only abort, never decode to a bit) and otherwise returns
    # the healthy result.
    one_column = _corrupt_sender_seed(ot_correlation, 3)
    for seed in range(3):
        instance = PreparedComparison(circuit, bit_width, one_column, rng=random.Random(seed))
        batch = instance._ot_batch
        label_wrong = any(
            pad != pair[c]
            for c, pad, pair in zip(
                batch.random_choices, batch.receiver_pads, batch.sender_pad_pairs
            )
        )
        if label_wrong:
            with pytest.raises((GarblingError, ComparisonError)):
                instance.evaluate(a, b)
        else:
            assert instance.evaluate(a, b).result == (a > b)
        assert instance.used
    # Every column wrong: a transferred label survives only if all kappa
    # bits of its row happen to match, 2^-128 per label, so every instance
    # aborts (failure chance below 3 * 64 * 2^-128 a run).
    every_column = _corrupt_sender_seed(ot_correlation, *range(ot_correlation.kappa))
    for seed in range(3):
        instance = PreparedComparison(circuit, bit_width, every_column, rng=random.Random(seed))
        with pytest.raises((GarblingError, ComparisonError)):
            instance.evaluate(a, b)
        assert instance.used


@pytest.mark.parametrize("bit_width", [1, 8, 32, 64])
@pytest.mark.parametrize("target", ["row", "label", "pad"])
def test_chaos_tamper_targets_never_misevaluate(ot_correlation, bit_width, target):
    """The three chaos hooks, driven through the word-wide evaluator."""
    circuit = build_greater_than_circuit(bit_width)
    top = (1 << bit_width) - 1
    aborted = 0
    operands = [(9, 4), (4, 9), (top, 0), (0, top), (77, 77), (1, 0)]
    for seed, (a, b) in enumerate(operands):
        a, b = min(a, top), min(b, top)
        instance = PreparedComparison(circuit, bit_width, ot_correlation, rng=random.Random(seed))
        size_before = instance._garbler.garbled.serialized_size()
        tamper_prepared_comparison(instance, target)
        try:
            result = instance.evaluate(a, b).result
        except (GarblingError, ComparisonError):
            aborted += 1
        else:
            # Only a row the active path never consumed may survive.
            assert target == "row"
            assert result == (a > b)
        assert instance._garbler.garbled.serialized_size() == size_before
    # Which rows the active path consumes depends only on the seeded labels,
    # Δ and OT choice bits (the CSPRNG instance tag picks pads that cancel),
    # so below 32 bits the "row" count is a fixed function of the seeds —
    # 4 of 6 at 1 bit, 6 of 6 at 8 — and the floor holds for every draw.
    # At 32 bits and above an instance skips every flipped row with
    # probability 4^-bit_width: the full count fails below 6 * 2^-64 a run.
    assert aborted >= (1 if target == "row" and bit_width < 32 else len(operands))
