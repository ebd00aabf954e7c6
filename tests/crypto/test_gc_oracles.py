"""The word-wide GC/OT code against its bit- and byte-at-a-time oracles.

``gc_oracles.py`` holds the loops ``otext.derive_batch``, ``otext._xor``,
``otext._prg`` and both garblers were written with before they went
word-wide.  For seeded randomness the product code must reproduce the
oracles' bytes exactly — same rows, same pads, same labels — and it must
still simulate *both* OT parties: a broken base-OT correlation has to show
up as mismatched pads and a fail-closed comparison, not be papered over by
deriving the receiver's pads from the sender's.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gc_oracles import (
    oracle_derive_batch,
    oracle_garble_classic,
    oracle_garble_halfgates,
    oracle_prg,
    oracle_xor,
)
from repro.chaos import tamper_prepared_comparison
from repro.crypto import otext
from repro.crypto.circuits import (
    CircuitBuilder,
    GateType,
    build_adder_circuit,
    build_greater_than_circuit,
    lower_to_xor_and,
)
from repro.crypto.garbled import (
    GarblingError,
    evaluate_garbled_circuit,
    garble_circuit,
    garble_circuit_halfgates,
)
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


# -- garblers ----------------------------------------------------------------------

GARBLERS = {
    "classic": (lambda c: c, garble_circuit, oracle_garble_classic),
    "halfgates": (lower_to_xor_and, garble_circuit_halfgates, oracle_garble_halfgates),
}


@settings(max_examples=12, deadline=None)
@given(
    scheme=st.sampled_from(sorted(GARBLERS)),
    build=st.sampled_from((build_greater_than_circuit, build_adder_circuit)),
    bit_width=st.sampled_from((1, 8, 64)),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_seeded_garbling_matches_parent_byte_for_byte(scheme, build, bit_width, seed):
    lower, garble, oracle = GARBLERS[scheme]
    circuit = lower(build(bit_width))
    out = garble(circuit, rng=random.Random(seed))
    gate_rows, decoding, labels = oracle(circuit, random.Random(seed))

    assert out.garbled.tables == b"".join(map(b"".join, gate_rows))
    assert [out.garbled.rows(i) for i in range(len(circuit.gates))] == gate_rows
    assert out.garbled.output_decoding == decoding
    assert out.garbled.scheme == scheme
    for wire, (zero, one) in labels.items():
        pair = out.wire_labels[wire]
        assert (pair.zero.key, pair.zero.external_bit) == zero
        assert (pair.one.key, pair.one.external_bit) == one
    # The seed formula: rows + 8-byte header per shipped gate + 64 B per output.
    shipped = [rows for rows in gate_rows if rows or scheme == "classic"]
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


def _garbled_run(draw, circuit, scheme, seed):
    """Garble ``circuit`` under ``scheme``; draw inputs; return what evaluation needs."""
    lower, garble, _ = GARBLERS[scheme]
    out = garble(lower(circuit), rng=random.Random(seed))
    garbler_bits = [draw(st.integers(0, 1)) for _ in circuit.garbler_inputs]
    evaluator_bits = [draw(st.integers(0, 1)) for _ in circuit.evaluator_inputs]
    evaluator_labels = [
        out.wire_labels[wire].for_value(bit)
        for wire, bit in zip(circuit.evaluator_inputs, evaluator_bits)
    ]
    expected = circuit.evaluate(garbler_bits, evaluator_bits)
    return out, out.garbler_input_labels(garbler_bits), evaluator_labels, expected


@settings(max_examples=80, deadline=None)
@given(
    circuit=small_circuits(),
    scheme=st.sampled_from(sorted(GARBLERS)),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
def test_flat_garblers_match_oracles_on_random_dags(circuit, scheme, seed, data):
    lower, _, oracle = GARBLERS[scheme]
    out, garbler_labels, evaluator_labels, expected = _garbled_run(data.draw, circuit, scheme, seed)
    gate_rows, decoding, labels = oracle(lower(circuit), random.Random(seed))

    assert out.garbled.tables == b"".join(map(b"".join, gate_rows))
    assert out.garbled.output_decoding == decoding
    for wire in circuit.garbler_inputs + circuit.evaluator_inputs:
        (zero_key, zero_bit), (one_key, one_bit) = labels[wire]
        assert out.wire_labels.serialized(wire) == (
            zero_key + bytes([zero_bit]),
            one_key + bytes([one_bit]),
        )
    assert evaluate_garbled_circuit(out.garbled, garbler_labels, evaluator_labels) == expected


@settings(max_examples=120, deadline=None)
@given(
    circuit=small_circuits(),
    scheme=st.sampled_from(sorted(GARBLERS)),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
def test_tampered_table_buffer_never_flips_an_output(circuit, scheme, seed, data):
    """Any single-bit flip, truncation or extension: ``GarblingError`` or the plaintext bits."""
    out, garbler_labels, evaluator_labels, expected = _garbled_run(data.draw, circuit, scheme, seed)
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
        result = evaluate_garbled_circuit(out.garbled, garbler_labels, evaluator_labels)
    except GarblingError:
        pass
    else:
        assert kind == "flip"  # a wrong-length buffer is always rejected
        assert result == expected
    assert out.garbled.serialized_size() == size_before


#: ``BENCH_crypto.json``'s ``table_bytes`` at the two benchmarked widths.
BENCH_TABLE_BYTES = {
    ("classic", 64): 20_308,
    ("halfgates", 64): 7_664,
    ("classic", 32): 10_068,
    ("halfgates", 32): 3_824,
}


@pytest.mark.parametrize("scheme", sorted(GARBLERS))
def test_serialized_size_equals_the_per_gate_formula(scheme):
    """Widths 1-64: rows + an 8-byte header per shipped gate + 64 B per output."""
    lower, garble, _ = GARBLERS[scheme]
    for bit_width in range(1, 65):
        circuit = lower(build_greater_than_circuit(bit_width))
        garbled = garble(circuit, rng=random.Random(bit_width)).garbled
        if scheme == "classic":
            per_gate = [8 if g.gate_type == GateType.NOT else 4 * 17 + 8 for g in circuit.gates]
        else:
            per_gate = [2 * 16 + 8 for g in circuit.gates if g.gate_type == GateType.AND]
        assert garbled.serialized_size() == sum(per_gate) + 64 * len(circuit.output_wires)
        assert len(garbled.tables) == sum(per_gate) - 8 * len(per_gate)
        if (scheme, bit_width) in BENCH_TABLE_BYTES:
            assert garbled.serialized_size() == BENCH_TABLE_BYTES[scheme, bit_width]


def test_csprng_garbling_draws_distinct_material():
    """The batched ``token_bytes`` draw: fresh labels per wire and per call."""
    circuit = build_greater_than_circuit(8)
    first, second = garble_circuit(circuit), garble_circuit(circuit)
    keys = set()
    for out in (first, second):
        for wire in list(circuit.garbler_inputs) + list(circuit.evaluator_inputs):
            pair = out.wire_labels[wire]
            assert {pair.zero.external_bit, pair.one.external_bit} == {0, 1}
            keys.update((pair.zero.key, pair.one.key))
    assert len(keys) == 2 * 2 * 16


# -- both parties are still simulated ----------------------------------------------


def _corrupt_sender_seed(correlation, index):
    """The extension sender recovered the wrong seed from base OT ``index``."""
    seeds = list(correlation.sender_seeds)
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


@pytest.mark.parametrize("scheme", ["classic", "halfgates"])
def test_comparison_on_a_broken_correlation_fails_closed(ot_correlation, scheme):
    broken = _corrupt_sender_seed(ot_correlation, 3)
    circuit = build_greater_than_circuit(64)
    for seed in range(3):
        instance = PreparedComparison(circuit, 64, broken, rng=random.Random(seed), scheme=scheme)
        # One wrong column corrupts about half of the 64 transferred labels
        # (the instance tag is fresh, so which half varies); a wrong label
        # can only abort, never decode to a bit.
        with pytest.raises((GarblingError, ComparisonError)):
            instance.evaluate(2**63 + 5, 123)
        assert instance.used


@pytest.mark.parametrize("scheme", ["classic", "halfgates"])
@pytest.mark.parametrize("target", ["row", "label", "pad"])
def test_chaos_tamper_targets_never_misevaluate(ot_correlation, scheme, target):
    """The three chaos hooks, driven through the word-wide evaluators."""
    circuit = build_greater_than_circuit(12)
    aborted = 0
    for seed, (a, b) in enumerate([(9, 4), (4, 9), (4095, 0), (0, 4095), (77, 77), (1, 0)]):
        instance = PreparedComparison(
            circuit, 12, ot_correlation, rng=random.Random(seed), scheme=scheme
        )
        size_before = instance._garbler.garbled.serialized_size()
        tamper_prepared_comparison(instance, target)
        try:
            result = instance.evaluate(a, b).result
        except (GarblingError, ComparisonError):
            aborted += 1
        else:
            # Only a half-gates row the active path never consumed may survive.
            assert (scheme, target) == ("halfgates", "row")
            assert result == (a > b)
        assert instance._garbler.garbled.serialized_size() == size_before
    assert aborted >= (1 if (scheme, target) == ("halfgates", "row") else 6)
