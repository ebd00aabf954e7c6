"""Property-based harness for the garbled-comparison pipeline.

Three families of guarantees must survive the offline refactor, under
**every garbling scheme** (the module is parametrized over ``classic`` and
``halfgates``):

* **bit-identity** — garbled evaluation (classic and pooled/prepared)
  matches the plaintext comparison for randomized bit widths and operands;
* **sign/range discipline** — negative or oversized operands are rejected
  on both paths with the same exception type;
* **fail-closed under tampering** — corrupting garbled rows, transferred
  labels, OT masks or output-decoding tables makes evaluation raise, never
  return a wrong-but-plausible bit.  (Half-gate rows enter evaluation only
  when their select bit is 1, so a tampered-but-unconsumed row legitimately
  still decodes — the property is "correct answer or abort", never a wrong
  answer.)
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TEST_KAPPA, small_comparison_pool
from repro.crypto.circuits import build_greater_than_circuit, int_to_bits
from repro.crypto.garbled import (
    GarblingError,
    WireLabel,
    evaluate_garbled_circuit,
    get_scheme,
)
from repro.crypto.gc_pool import ComparisonError, PreparedComparison
from repro.crypto.otext import OTExtensionError, derive_batch
from repro.crypto.secure_comparison import (
    SecureComparisonError,
    prepared_greater_than,
    prepared_less_than,
)

SCHEMES = ("classic", "halfgates")


@pytest.fixture(scope="module")
def correlation(ot_correlation):
    # The session-cached small-kappa correlation from tests/helpers.py.
    return ot_correlation


@pytest.fixture(scope="module", params=SCHEMES)
def scheme(request):
    return request.param


def prepared(bit_width, correlation, seed, scheme="classic"):
    circuit = build_greater_than_circuit(bit_width)
    return PreparedComparison(
        circuit, bit_width, correlation, rng=random.Random(seed), scheme=scheme
    )


def garble_for(scheme_name, bit_width, rng):
    """Lower + garble a comparator under one scheme (for tamper tests)."""
    garbling = get_scheme(scheme_name)
    circuit = garbling.lower(build_greater_than_circuit(bit_width))
    return circuit, garbling.garble(circuit, rng=rng)


# -- bit-identity properties -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    bit_width=st.integers(min_value=1, max_value=20),
    a=st.integers(min_value=0, max_value=2**20 - 1),
    b=st.integers(min_value=0, max_value=2**20 - 1),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_prepared_evaluation_matches_plaintext(correlation, scheme, bit_width, a, b, seed):
    a %= 1 << bit_width
    b %= 1 << bit_width
    instance = prepared(bit_width, correlation, seed, scheme=scheme)
    assert prepared_greater_than(instance, a, b).result == (a > b)


@settings(max_examples=15, deadline=None)
@given(
    bit_width=st.integers(min_value=1, max_value=16),
    a=st.integers(min_value=0, max_value=2**16 - 1),
    b=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_prepared_less_than_matches_plaintext(correlation, scheme, bit_width, a, b):
    a %= 1 << bit_width
    b %= 1 << bit_width
    instance = prepared(bit_width, correlation, seed=a ^ (b << 1), scheme=scheme)
    result = prepared_less_than(instance, a, b)
    assert result.result == (a < b)
    assert result.pooled is True


def test_pool_draws_match_plaintext_over_random_widths(correlation, scheme):
    rng = random.Random(77)
    for bit_width in (1, 2, 7, 13, 64):
        pool = small_comparison_pool(bit_width, scheme=scheme)
        assert pool.scheme == scheme
        pool.warm(3)
        for _ in range(3):
            a = rng.randrange(0, 1 << bit_width)
            b = rng.randrange(0, 1 << bit_width)
            instance = pool.take()
            assert instance is not None
            assert instance.evaluate(a, b).result == (a > b)
        assert pool.fallback_count == 0


def test_non_positive_counts_are_noops():
    """Regression: stock(-3) used to leave ``stocked == -3``."""
    pool = small_comparison_pool(8)
    for count in (0, -3):
        assert pool.refill(count) == 0
        assert pool.stock(count) == 0
        assert pool.reserve(7, count) == 0
    assert (pool.produced, pool.stocked, pool.reserved) == (0, 0, 0)
    assert pool.sessions_started == 0
    assert pool.available == pool.reservoir_available == 0


def test_boundary_operands(correlation, scheme):
    for bit_width in (1, 8, 64):
        top = (1 << bit_width) - 1
        for a, b in ((0, 0), (top, top), (0, top), (top, 0)):
            instance = prepared(bit_width, correlation, seed=a + b + bit_width, scheme=scheme)
            assert instance.evaluate(a, b).result == (a > b)


def test_halfgates_tables_are_smaller(correlation):
    """The point of the scheme: fewer garbled-table bytes per instance."""
    classic = prepared(64, correlation, seed=5, scheme="classic")
    halfgates = prepared(64, correlation, seed=5, scheme="halfgates")
    assert halfgates.offline_bytes < classic.offline_bytes
    # Identical OT batches and accounting shape; only the tables shrink.
    assert halfgates.and_gate_count == classic.and_gate_count
    assert halfgates.evaluate(2**63, 2**62).result is True


# -- operand sign / range discipline ---------------------------------------------------


@pytest.mark.parametrize("bad_pair", [(-1, 3), (3, -1), (-5, -2)])
def test_negative_operands_rejected(bad_pair, correlation, scheme):
    instance = prepared(8, correlation, seed=1, scheme=scheme)
    with pytest.raises(SecureComparisonError):
        prepared_greater_than(instance, *bad_pair)
    # Rejection happens before evaluation, so the instance is still fresh.
    assert not instance.used
    assert instance.evaluate(4, 2).result is True


def test_oversized_operands_rejected(correlation, scheme):
    instance = prepared(8, correlation, seed=2, scheme=scheme)
    with pytest.raises(SecureComparisonError):
        prepared_greater_than(instance, 256, 3)
    with pytest.raises(SecureComparisonError):
        prepared_greater_than(instance, 3, 1 << 12)


def test_one_shot_reuse_rejected(correlation, scheme):
    instance = prepared(8, correlation, seed=3, scheme=scheme)
    assert instance.evaluate(9, 4).result is True
    with pytest.raises(ComparisonError):
        instance.evaluate(9, 4)
    # And through the secure_comparison wrapper the error is translated.
    other = prepared(8, correlation, seed=4, scheme=scheme)
    prepared_greater_than(other, 1, 2)
    with pytest.raises(SecureComparisonError):
        prepared_greater_than(other, 1, 2)


# -- adversarial tampering fails closed ------------------------------------------------


def _flip_bit(data: bytes, bit: int = 0) -> bytes:
    return bytes([data[0] ^ (1 << bit)]) + data[1:]


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**12 - 1),
    st.integers(min_value=0, max_value=2**12 - 1),
    st.integers(min_value=0, max_value=2**16),
)
def test_tampered_rows_fail_closed(scheme, bit_width, a, b, seed):
    """Corrupting every garbled row must never mis-evaluate.

    Classic evaluation decrypts one row per binary gate, so tampering every
    row always aborts.  A half-gate row is folded in only when its select
    bit is 1; when an evaluation's active path happens to consume no
    tampered row it legitimately decodes — to the *correct* bit.
    """
    a %= 1 << bit_width
    b %= 1 << bit_width
    rng = random.Random(seed)
    circuit, out = garble_for(scheme, bit_width, rng)
    tables = bytearray(out.garbled.tables)
    for start in range(0, len(tables), out.garbled.row_bytes):
        tables[start] ^= 1 << (seed % 8)
    out.garbled.tables = bytes(tables)
    garbler_labels = out.garbler_input_labels(int_to_bits(a, bit_width))
    evaluator_labels = [
        out.wire_labels[w].for_value(bit)
        for w, bit in zip(circuit.evaluator_inputs, int_to_bits(b, bit_width))
    ]
    if scheme == "classic":
        with pytest.raises(GarblingError):
            evaluate_garbled_circuit(out.garbled, garbler_labels, evaluator_labels)
    else:
        try:
            result = evaluate_garbled_circuit(out.garbled, garbler_labels, evaluator_labels)
        except GarblingError:
            pass
        else:
            assert result == [int(a > b)]


def test_tampered_output_decoding_fails_closed(scheme):
    circuit, out = garble_for(scheme, 4, random.Random(5))
    wire = circuit.output_wires[0]
    zero_digest, one_digest = out.garbled.output_decoding[wire]
    out.garbled.output_decoding[wire] = (_flip_bit(zero_digest), _flip_bit(one_digest))
    garbler_labels = out.garbler_input_labels(int_to_bits(9, 4))
    evaluator_labels = [
        out.wire_labels[w].for_value(bit)
        for w, bit in zip(circuit.evaluator_inputs, int_to_bits(3, 4))
    ]
    with pytest.raises(GarblingError):
        evaluate_garbled_circuit(out.garbled, garbler_labels, evaluator_labels)


def test_tampered_wire_label_fails_closed(scheme):
    circuit, out = garble_for(scheme, 4, random.Random(6))
    garbler_labels = out.garbler_input_labels(int_to_bits(5, 4))
    forged = [
        WireLabel(key=_flip_bit(label.key), external_bit=label.external_bit)
        for label in garbler_labels
    ]
    evaluator_labels = [
        out.wire_labels[w].for_value(bit)
        for w, bit in zip(circuit.evaluator_inputs, int_to_bits(11, 4))
    ]
    with pytest.raises(GarblingError):
        evaluate_garbled_circuit(out.garbled, forged, evaluator_labels)


def test_tampered_ot_masks_fail_closed(correlation, scheme):
    """Flipping bits in the prepared OT pads corrupts the transferred label."""
    instance = prepared(6, correlation, seed=8, scheme=scheme)
    batch = instance._ot_batch
    batch.sender_pad_pairs = tuple(
        (_flip_bit(p0), _flip_bit(p1)) for p0, p1 in batch.sender_pad_pairs
    )
    with pytest.raises((ComparisonError, GarblingError)):
        instance.evaluate(33, 17)


def test_ot_batch_one_shot_and_length_checks(correlation):
    batch = derive_batch(
        correlation, count=4, msg_len=8, instance=b"test-batch", choice_rng=random.Random(9)
    )
    pairs = [(bytes([i] * 8), bytes([i + 1] * 8)) for i in range(4)]
    recovered, _ = batch.transfer(pairs, [0, 1, 0, 1])
    assert [m[0] for m in recovered] == [0, 2, 2, 4]
    with pytest.raises(OTExtensionError):
        batch.transfer(pairs, [0, 1, 0, 1])
    fresh = derive_batch(
        correlation, count=4, msg_len=8, instance=b"test-batch-2", choice_rng=random.Random(9)
    )
    with pytest.raises(OTExtensionError):
        fresh.transfer(pairs[:3], [0, 1, 0])
