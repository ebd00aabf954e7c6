"""Tests for the Fairplay-style secure comparison wrapper."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import safe_prime_group, shared_correlation
from repro.crypto.circuits import build_greater_than_circuit, int_to_bits
from repro.crypto.garbled import run_two_party_computation
from repro.crypto.gc_pool import PreparedComparison
from repro.crypto.secure_comparison import (
    SecureComparisonError,
    prepared_greater_than,
    secure_greater_than,
    secure_less_than,
)


def test_greater_than_basic():
    rng = random.Random(0)
    assert secure_greater_than(10, 3, bit_width=8, rng=rng).result is True
    assert secure_greater_than(3, 10, bit_width=8, rng=rng).result is False
    assert secure_greater_than(7, 7, bit_width=8, rng=rng).result is False


def test_less_than_basic():
    rng = random.Random(1)
    assert secure_less_than(3, 10, bit_width=8, rng=rng).result is True
    assert secure_less_than(10, 3, bit_width=8, rng=rng).result is False
    assert secure_less_than(5, 5, bit_width=8, rng=rng).result is False


def test_byte_accounting_present():
    result = secure_greater_than(1000, 999, bit_width=16, rng=random.Random(2))
    assert result.garbler_bytes_sent > 0
    assert result.evaluator_bytes_sent > 0
    assert result.and_gate_count > 0


def test_negative_inputs_rejected():
    with pytest.raises(SecureComparisonError):
        secure_greater_than(-1, 3, bit_width=8)
    with pytest.raises(SecureComparisonError):
        secure_greater_than(3, -1, bit_width=8)


def test_oversized_inputs_rejected():
    with pytest.raises(SecureComparisonError):
        secure_greater_than(256, 3, bit_width=8)
    with pytest.raises(SecureComparisonError):
        secure_greater_than(3, 256, bit_width=8)


def test_large_bit_width_values():
    rng = random.Random(3)
    big_a = 2**40 + 12345
    big_b = 2**40 + 12344
    assert secure_greater_than(big_a, big_b, bit_width=48, rng=rng).result is True
    assert secure_less_than(big_b, big_a, bit_width=48, rng=rng).result is True


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**16 - 1), st.integers(min_value=0, max_value=2**16 - 1))
def test_secure_comparison_property(a, b):
    rng = random.Random(a ^ (b << 1))
    assert secure_greater_than(a, b, bit_width=16, rng=rng).result == (a > b)


# -- the 1-AND-per-bit comparator on all three paths ---------------------------------


@lru_cache(maxsize=None)
def _small_ot_group():
    """A 128-bit OT group: the inline path's public-key OTs, fast enough to run exhaustively."""
    return safe_prime_group(128, random.Random(1))


def _plain(bit_width, a, b, seed):
    circuit = build_greater_than_circuit(bit_width)
    return bool(circuit.evaluate(int_to_bits(a, bit_width), int_to_bits(b, bit_width))[0])


def _pooled(bit_width, a, b, seed):
    circuit = build_greater_than_circuit(bit_width)
    instance = PreparedComparison(
        circuit, bit_width, shared_correlation(), rng=random.Random(seed)
    )
    return prepared_greater_than(instance, a, b).result


def _inline(bit_width, a, b, seed):
    run = run_two_party_computation(
        build_greater_than_circuit(bit_width),
        int_to_bits(a, bit_width),
        int_to_bits(b, bit_width),
        rng=random.Random(seed),
        ot_group=_small_ot_group(),
    )
    return bool(run.output_bits[0])


PATHS = {"plain": _plain, "pooled": _pooled, "inline": _inline}


@pytest.mark.parametrize("bit_width", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_comparator_exhaustive(path, bit_width):
    compare = PATHS[path]
    for a in range(1 << bit_width):
        for b in range(1 << bit_width):
            assert compare(bit_width, a, b, seed=(a << bit_width) | b) == (a > b), (a, b)


@pytest.mark.parametrize("bit_width", [32, 64])
@pytest.mark.parametrize("path", sorted(PATHS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_comparator_at_protocol_widths(path, bit_width, data):
    top = (1 << bit_width) - 1
    operand = st.one_of(st.integers(0, top), st.sampled_from((0, 1, top - 1, top)))
    a = data.draw(operand)
    b = data.draw(st.one_of(operand, st.just(a)))
    assert PATHS[path](bit_width, a, b, seed=a ^ b) == (a > b)


@pytest.mark.parametrize("bit_width", [1, 2, 8, 16, 32, 63, 64])
def test_comparator_spends_one_and_gate_per_bit(bit_width):
    circuit = build_greater_than_circuit(bit_width)
    histogram = circuit.program.histogram
    assert circuit.and_gate_count == histogram["AND"] == bit_width
    assert histogram.get("XOR", 0) == 3 * (bit_width - 1)
    assert histogram["NOT"] == 1
    assert "OR" not in histogram
    rng = random.Random(bit_width)
    top = (1 << bit_width) - 1
    result = secure_greater_than(top, top >> 1, bit_width=bit_width, rng=rng)
    assert result.result is True
    assert result.and_gate_count == bit_width
