"""Property-based harness for the garbled-comparison pipeline.

Three families of guarantees must survive the offline refactor, at **every
comparator width** the protocol can run (the module is parametrized over
1, 8, 32 and 64 bits):

* **bit-identity** — garbled evaluation (pooled/prepared) matches the
  plaintext comparison for randomized operands, including the boundaries;
* **sign/range discipline** — negative or oversized operands are rejected
  with the same exception type;
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

from helpers import small_comparison_pool
from repro.crypto.circuits import build_greater_than_circuit, int_to_bits
from repro.crypto.garbled import GarblingError, evaluate_garbled_circuit, garble_circuit
from repro.crypto.gc_pool import ComparisonError, PreparedComparison
from repro.crypto.otext import OTExtensionError, derive_batch
from repro.crypto.secure_comparison import (
    SecureComparisonError,
    prepared_greater_than,
    prepared_less_than,
    secure_greater_than,
)

BIT_WIDTHS = (1, 8, 32, 64)


@pytest.fixture(scope="module")
def correlation(ot_correlation):
    # The session-cached small-kappa correlation from tests/helpers.py.
    return ot_correlation


@pytest.fixture(scope="module", params=BIT_WIDTHS)
def bit_width(request):
    return request.param


def prepared(bit_width, correlation, seed):
    circuit = build_greater_than_circuit(bit_width)
    return PreparedComparison(circuit, bit_width, correlation, rng=random.Random(seed))


def garbled_with_keys(bit_width, a, b, seed):
    """Garble a comparator and select the active keys for ``a > b``."""
    circuit = build_greater_than_circuit(bit_width)
    out = garble_circuit(circuit, rng=random.Random(seed))
    garbler_keys = out.garbler_input_keys(int_to_bits(a, bit_width))
    evaluator_keys = [
        out.key(w, bit) for w, bit in zip(circuit.evaluator_inputs, int_to_bits(b, bit_width))
    ]
    return circuit, out, garbler_keys, evaluator_keys


def operands(bit_width):
    """Uniform operands plus the boundaries 0, 1, 2^w - 2 and 2^w - 1."""
    top = (1 << bit_width) - 1
    return st.one_of(st.integers(0, top), st.sampled_from(sorted({0, 1, max(top - 1, 0), top})))


# -- bit-identity properties -----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
def test_prepared_evaluation_matches_plaintext(correlation, bit_width, data, seed):
    a = data.draw(operands(bit_width))
    b = data.draw(st.one_of(operands(bit_width), st.just(a)))
    instance = prepared(bit_width, correlation, seed)
    assert prepared_greater_than(instance, a, b).result == (a > b)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_prepared_less_than_matches_plaintext(correlation, bit_width, data):
    a = data.draw(operands(bit_width))
    b = data.draw(st.one_of(operands(bit_width), st.just(a)))
    instance = prepared(bit_width, correlation, seed=a ^ (b << 1))
    result = prepared_less_than(instance, a, b)
    assert result.result == (a < b)
    assert result.pooled is True


def test_pool_draws_match_plaintext(bit_width):
    rng = random.Random(77 + bit_width)
    pool = small_comparison_pool(bit_width)
    pool.warm(3)
    for _ in range(3):
        a = rng.randrange(0, 1 << bit_width)
        b = rng.randrange(0, 1 << bit_width)
        instance = pool.take()
        assert instance is not None
        assert instance.evaluate(a, b).result == (a > b)
    assert pool.fallback_count == 0


def test_non_positive_counts_are_noops():
    """Regression: refill(-3) must not leave ``produced == -3``."""
    pool = small_comparison_pool(8)
    for count in (0, -3):
        assert pool.refill(count) == 0
        assert pool.reserve(7, count) == 0
    assert (pool.produced, pool.reserved) == (0, 0)
    assert pool.sessions_started == 0
    assert pool.available == pool.reservoir_available == 0


def test_boundary_operands(correlation, bit_width):
    top = (1 << bit_width) - 1
    for a, b in ((0, 0), (top, top), (0, top), (top, 0)):
        instance = prepared(bit_width, correlation, seed=a + b + bit_width)
        assert instance.evaluate(a, b).result == (a > b)


def test_offline_bytes_are_tables_plus_correction_columns(correlation, bit_width):
    """One AND gate per bit: 40 B of table each, 64 B of output decoding."""
    instance = prepared(bit_width, correlation, seed=5)
    assert instance.and_gate_count == bit_width
    extension = correlation.kappa * ((bit_width + 7) // 8)
    assert instance.offline_bytes == 40 * bit_width + 64 + extension


def test_pooled_and_inline_paths_agree_on_result_and_tables(correlation, bit_width):
    """The same garbler on both paths: same outcome, same table bytes.

    The pooled garbler ships its tables, its ``bit_width`` 17-byte input
    labels and both masked labels of every derandomized OT.
    """
    top = (1 << bit_width) - 1
    a, b = top, top >> 1
    pooled = prepared_greater_than(prepared(bit_width, correlation, seed=9), a, b)
    inline = secure_greater_than(a, b, bit_width=bit_width, rng=random.Random(9))
    assert pooled.result is inline.result is (a > b)
    assert pooled.and_gate_count == inline.and_gate_count == bit_width
    tables = 40 * bit_width + 64
    assert pooled.garbler_bytes_sent == tables + 17 * bit_width + 2 * 17 * bit_width
    assert inline.garbler_bytes_sent > tables + 17 * bit_width


# -- operand sign / range discipline ---------------------------------------------------


@pytest.mark.parametrize("bad_pair", [(-1, 0), (0, -1), (-5, -2)])
def test_negative_operands_rejected(bad_pair, correlation, bit_width):
    instance = prepared(bit_width, correlation, seed=1)
    with pytest.raises(SecureComparisonError):
        prepared_greater_than(instance, *bad_pair)
    # Rejection happens before evaluation, so the instance is still fresh.
    assert not instance.used
    assert instance.evaluate(1, 0).result is True


def test_oversized_operands_rejected(correlation, bit_width):
    instance = prepared(bit_width, correlation, seed=2)
    with pytest.raises(SecureComparisonError):
        prepared_greater_than(instance, 1 << bit_width, 0)
    with pytest.raises(SecureComparisonError):
        prepared_greater_than(instance, 0, 1 << (bit_width + 4))


def test_one_shot_reuse_rejected(correlation, bit_width):
    instance = prepared(bit_width, correlation, seed=3)
    assert instance.evaluate(1, 0).result is True
    with pytest.raises(ComparisonError):
        instance.evaluate(1, 0)
    # And through the secure_comparison wrapper the error is translated.
    other = prepared(bit_width, correlation, seed=4)
    prepared_greater_than(other, 0, 1)
    with pytest.raises(SecureComparisonError):
        prepared_greater_than(other, 0, 1)


# -- adversarial tampering fails closed ------------------------------------------------


def _flip_bit(data: bytes, bit: int = 0) -> bytes:
    return bytes([data[0] ^ (1 << bit)]) + data[1:]


@settings(max_examples=12, deadline=None)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**16))
def test_tampered_rows_fail_closed(bit_width, data, seed):
    """Corrupting every garbled row must never mis-evaluate.

    A half-gate row is folded in only when its select bit is 1; when an
    evaluation's active path happens to consume no tampered row it
    legitimately decodes — to the *correct* bit.
    """
    a = data.draw(operands(bit_width))
    b = data.draw(operands(bit_width))
    _, out, garbler_keys, evaluator_keys = garbled_with_keys(bit_width, a, b, seed)
    tables = bytearray(out.garbled.tables)
    for start in range(0, len(tables), 16):
        tables[start] ^= 1 << (seed % 8)
    out.garbled.tables = bytes(tables)
    try:
        result = evaluate_garbled_circuit(out.garbled, garbler_keys, evaluator_keys)
    except GarblingError:
        pass
    else:
        assert result == [int(a > b)]


def test_tampered_output_decoding_fails_closed(bit_width):
    a, b = (1 << bit_width) - 1, 0
    circuit, out, garbler_keys, evaluator_keys = garbled_with_keys(bit_width, a, b, 5)
    wire = circuit.output_wires[0]
    zero_digest, one_digest = out.garbled.output_decoding[wire]
    out.garbled.output_decoding[wire] = (_flip_bit(zero_digest), _flip_bit(one_digest))
    with pytest.raises(GarblingError):
        evaluate_garbled_circuit(out.garbled, garbler_keys, evaluator_keys)


def test_tampered_wire_label_fails_closed(bit_width):
    _, out, garbler_keys, evaluator_keys = garbled_with_keys(bit_width, 1, 0, 6)
    forged = [key ^ (1 << 127) for key in garbler_keys]
    with pytest.raises(GarblingError):
        evaluate_garbled_circuit(out.garbled, forged, evaluator_keys)


def test_tampered_ot_masks_fail_closed(correlation, bit_width):
    """Flipping bits in the prepared OT pads corrupts the transferred label."""
    instance = prepared(bit_width, correlation, seed=8)
    batch = instance._ot_batch
    batch.sender_pad_pairs = tuple(
        (_flip_bit(p0), _flip_bit(p1)) for p0, p1 in batch.sender_pad_pairs
    )
    with pytest.raises((ComparisonError, GarblingError)):
        instance.evaluate(1, 0)


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
