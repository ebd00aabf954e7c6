"""Unit tests for prime generation and primality testing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.primes import (
    SMALL_PRIMES,
    generate_prime,
    generate_safe_prime,
    is_probable_prime,
)


KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 104729, 2**31 - 1, 2**61 - 1]
KNOWN_COMPOSITES = [1, 0, -7, 4, 9, 561, 41041, 2**32, 104729 * 104723]


@pytest.mark.parametrize("value", KNOWN_PRIMES)
def test_known_primes_accepted(value):
    assert is_probable_prime(value)


@pytest.mark.parametrize("value", KNOWN_COMPOSITES)
def test_known_composites_rejected(value):
    assert not is_probable_prime(value)


def test_carmichael_numbers_rejected():
    # Carmichael numbers fool Fermat tests but not Miller--Rabin.
    for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911):
        assert not is_probable_prime(carmichael)


def test_small_primes_table_is_prime():
    for p in SMALL_PRIMES:
        assert is_probable_prime(p)


@pytest.mark.parametrize("bits", [16, 32, 64, 128])
def test_generate_prime_bit_length(bits):
    rng = random.Random(bits)
    p = generate_prime(bits, rng)
    assert p.bit_length() == bits
    assert is_probable_prime(p)


def test_generate_prime_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        generate_prime(4)


def test_generate_prime_deterministic_with_seed():
    assert generate_prime(48, random.Random(5)) == generate_prime(48, random.Random(5))


def test_generate_safe_prime_structure():
    p = generate_safe_prime(48, random.Random(9))
    q = (p - 1) // 2
    assert is_probable_prime(p)
    assert is_probable_prime(q)
    assert p.bit_length() == 48


def test_generate_safe_prime_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        generate_safe_prime(8)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=50_000))
def test_probable_prime_matches_trial_division(n):
    def trial_division(value: int) -> bool:
        if value < 2:
            return False
        d = 2
        while d * d <= value:
            if value % d == 0:
                return False
            d += 1
        return True

    assert is_probable_prime(n) == trial_division(n)
