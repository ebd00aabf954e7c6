"""Tests for the Paillier acceleration layer.

Covers the owner-side half-exponent obfuscator sampler + randomizer-pool
offline split, the fixed-base comb table against the builtin ``pow``
oracle, and that every exponentiation in the layer dispatches through the
bigint seam (mocked here; the real backends are pinned in
``test_bigint.py``).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import shared_keypair
from repro.crypto.accel import (
    FixedBaseTable,
    RandomizerPool,
    backend,
    precompute_obfuscator,
    set_backend,
)
from repro.crypto.paillier import (
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
    homomorphic_sum,
)


@pytest.fixture(scope="module")
def pool_keypair():
    return generate_keypair(128, random.Random(77))


def test_precompute_obfuscator_crt_matches_public_path(pool_keypair):
    public, private = pool_keypair.public_key, pool_keypair.private_key
    for r in (2, 12345, public.n - 1):
        assert precompute_obfuscator(public, r) == precompute_obfuscator(
            public, r, private_key=private
        )


def test_pooled_encrypt_decrypts_like_fresh(pool_keypair):
    public, private = pool_keypair.public_key, pool_keypair.private_key
    pool = RandomizerPool(public, random.Random(1), private_key=private)
    pool.warm(8)
    for value in (0, 1, -1, 999, -999, public.max_plaintext, -public.max_plaintext):
        assert private.decrypt(pool.encrypt(value)) == value


def test_pool_entries_are_single_use(pool_keypair):
    pool = RandomizerPool(
        pool_keypair.public_key, random.Random(2), private_key=pool_keypair.private_key
    )
    pool.warm(16)
    taken = pool.take_many(16)
    # Every obfuscator is handed out exactly once (one-time-pad discipline).
    assert len(set(taken)) == len(taken)
    assert pool.available == 0
    assert pool.consumed == 16
    assert pool.fallback_count == 0


def test_exhausted_pool_falls_back_to_online(pool_keypair):
    """Regression: draining the pool must transparently re-run the online path."""
    public, private = pool_keypair.public_key, pool_keypair.private_key
    pool = RandomizerPool(public, random.Random(3), private_key=private)
    pool.warm(2)
    values = [11, -22, 33, -44, 55]
    ciphertexts = [pool.encrypt(v) for v in values]
    assert [private.decrypt(ct) for ct in ciphertexts] == values
    assert pool.fallback_count == len(values) - 2
    assert pool.consumed == len(values)


def test_warm_tops_up_without_overfilling(pool_keypair):
    pool = RandomizerPool(
        pool_keypair.public_key, random.Random(4), private_key=pool_keypair.private_key
    )
    assert pool.warm(5) == 5
    assert pool.warm(5) == 0
    pool.take()
    assert pool.warm(5) == 1
    assert pool.available == 5
    assert pool.produced == 6


def test_pool_without_private_key(pool_keypair):
    public, private = pool_keypair.public_key, pool_keypair.private_key
    pool = RandomizerPool(public, random.Random(5))
    pool.warm(3)
    assert private.decrypt(pool.encrypt(4242)) == 4242


def test_pool_rejects_mismatched_private_key(pool_keypair):
    other = generate_keypair(128, random.Random(88))
    with pytest.raises(ValueError):
        RandomizerPool(pool_keypair.public_key, private_key=other.private_key)
    with pytest.raises(ValueError):
        precompute_obfuscator(pool_keypair.public_key, 5, private_key=other.private_key)


def test_encrypt_many_uses_one_obfuscator_each(pool_keypair):
    public, private = pool_keypair.public_key, pool_keypair.private_key
    pool = RandomizerPool(public, random.Random(6), private_key=private)
    pool.warm(4)
    values = [1, 2, 3, 4]
    ciphertexts = pool.encrypt_many(values)
    assert private.decrypt_many(ciphertexts) == values
    assert pool.available == 0


def test_batched_homomorphic_sum_matches_sequential(pool_keypair):
    public, private = pool_keypair.public_key, pool_keypair.private_key
    values = list(range(-10, 25, 3))
    ciphertexts = public.encrypt_many(values, rng=random.Random(7))
    for chunk in (1, 2, 8, 64):
        total = homomorphic_sum(ciphertexts, public, chunk_size=chunk)
        assert private.decrypt(total) == sum(values)


def test_non_positive_counts_are_noops(pool_keypair):
    """Regression: refill(-3) used to leave ``produced == -3``."""
    pool = RandomizerPool(pool_keypair.public_key, private_key=pool_keypair.private_key)
    for count in (0, -3):
        assert pool.refill(count) == 0
        assert pool.stock(count) == 0
        assert pool.reserve(7, count) == 0
    assert (pool.produced, pool.stocked, pool.reserved) == (0, 0, 0)
    assert pool.available == pool.reservoir_available == 0
    assert pool.reservation_available(7) == 0


# -- owner-side half-exponent sampler --------------------------------------------------


class _ScriptedRng:
    """Replays a fixed sequence of ``randrange`` draws (range-checked)."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def randrange(self, start, stop):
        value = next(self._draws)
        assert start <= value < stop
        return value


def _toy_keypair(p, q):
    public = PaillierPublicKey(n=p * q)
    return public, PaillierPrivateKey(public_key=public, p=p, q=q)


@pytest.mark.parametrize("p, q", [(5, 7), (7, 11), (11, 17), (17, 11)])
def test_sampler_is_bijection_onto_nth_residues(p, q):
    """The distribution claim by enumeration: a uniform ``(u_p, u_q)`` pair
    is a uniform n-th residue, i.e. what ``r^n`` of a uniform unit ``r`` is."""
    public, private = _toy_keypair(p, q)
    n, n_sq = public.n, public.n_squared
    residues = {pow(r, n, n_sq) for r in range(1, n) if math.gcd(r, n) == 1}
    assert len(residues) == (p - 1) * (q - 1)

    pairs = [(u_p, u_q) for u_p in range(1, p) for u_q in range(1, q)]
    pool = RandomizerPool(
        public, _ScriptedRng(u for pair in pairs for u in pair), private_key=private
    )
    pool.refill(len(pairs))
    samples = pool.take_many(len(pairs))
    assert len(set(samples)) == len(pairs)
    assert set(samples) == residues

    # The r-addressed path is exact for every r, units or not.
    for r in range(1, n):
        assert precompute_obfuscator(public, r, private) == pow(r, n, n_sq)


def test_private_key_rejects_modulus_sharing_a_factor_with_phi():
    # gcd(21, phi(21) = 12) = 3: the lift's bijection precondition (and
    # decryption's mu) fail, so such a key cannot be constructed at all.
    with pytest.raises(ValueError):
        _toy_keypair(3, 7)


@pytest.mark.parametrize("bits", (128, 256))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_samples_are_nth_residues_and_encrypt_correctly(bits, data):
    keypair = shared_keypair(bits, bits)
    public, private = keypair.public_key, keypair.private_key
    limit = public.max_plaintext
    plaintext = data.draw(
        st.one_of(
            st.sampled_from((0, 1, -1, limit, -limit)),
            st.integers(min_value=-limit, max_value=limit),
        )
    )
    pool = RandomizerPool(public, private_key=private)
    pool.warm(1)
    obfuscator = pool.take()
    assert 0 < obfuscator < public.n_squared
    phi = (private.p - 1) * (private.q - 1)
    assert pow(obfuscator, phi, public.n_squared) == 1
    assert private.decrypt(public.raw_encrypt(plaintext, obfuscator)) == plaintext


class _SpySampler:
    """Stands in for a pool's owner-side sampler and counts its draws."""

    def __init__(self, inner):
        self._inner = inner
        self.draws = 0

    def sample(self, rng):
        self.draws += 1
        return self._inner.sample(rng)


def test_every_producer_draws_through_the_one_sampler(pool_keypair):
    pool = RandomizerPool(pool_keypair.public_key, private_key=pool_keypair.private_key)
    spy = pool._owner = _SpySampler(pool._owner)

    pool.warm(4)
    handed_out = pool.take_many(4)
    assert spy.draws == 4
    handed_out += pool.take_many(3)  # drained pool: online fallback
    assert (spy.draws, pool.fallback_count) == (7, 3)
    pool.stock(5)
    assert (spy.draws, pool.reservoir_available) == (12, 5)
    pool.reserve(9, 6)
    assert (spy.draws, pool.reservation_available(9)) == (18, 6)
    assert pool.claim_reservation(9) == 6

    # Stocked and claimed values are popped, not recomputed ...
    pool.warm(11)
    handed_out += pool.take_many(11)
    assert spy.draws == 18
    assert pool.reservoir_available == 0
    # ... and nothing was ever handed out twice.
    assert len(set(handed_out)) == len(handed_out) == 18
    assert pool.fallback_count == 3


# -- fixed-base comb table -------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    base=st.integers(min_value=0, max_value=2**80),
    exponents=st.lists(st.integers(min_value=0, max_value=2**48 - 1), min_size=1, max_size=6),
    modulus=st.integers(min_value=2, max_value=2**80),
    window_bits=st.integers(min_value=1, max_value=6),
)
def test_fixed_base_table_matches_pow(base, exponents, modulus, window_bits):
    table = FixedBaseTable(base, modulus, max_exponent_bits=48, window_bits=window_bits)
    for exponent in exponents:
        assert table.powmod(exponent) == pow(base, exponent, modulus)


def test_fixed_base_table_rejects_out_of_range():
    table = FixedBaseTable(3, 1000, max_exponent_bits=8)
    assert table.powmod(0) == 1
    assert table.powmod(1) == 3
    assert table.powmod(255) == pow(3, 255, 1000)
    with pytest.raises(ValueError):
        table.powmod(256)
    with pytest.raises(ValueError):
        table.powmod(-1)
    with pytest.raises(ValueError):
        FixedBaseTable(3, 0, max_exponent_bits=8)


def test_fixed_base_table_matches_multiply_plaintext(pool_keypair):
    """The Protocol 4 usage: same integers as multiply_plaintext, table or not."""
    public, private = pool_keypair.public_key, pool_keypair.private_key
    ciphertext = public.encrypt(37, rng=random.Random(11))
    # Negative scalars encode into the upper half of Z_n (the "negative
    # encodings" edge case): the table sees the encoded non-negative value.
    scalars = [0, 1, 2, 999, -1, -999, 10**12]
    encoded = [s % public.n for s in scalars]
    table = FixedBaseTable(
        ciphertext.value,
        public.n_squared,
        max_exponent_bits=max(e.bit_length() for e in encoded),
    )
    for scalar, enc in zip(scalars, encoded):
        assert table.powmod(enc) == ciphertext.multiply_plaintext(scalar).value


# -- bigint backend seam ---------------------------------------------------------------


class _CountingBackend:
    """Mock bigint backend: records powmod dispatches."""

    name = "counting-mock"

    def __init__(self):
        self.seen = []

    def powmod(self, base, exponent, modulus):
        self.seen.append((exponent, modulus))
        return pow(base, exponent, modulus)


def test_mock_backend_receives_obfuscator_dispatch(pool_keypair):
    public, private = pool_keypair.public_key, pool_keypair.private_key
    mock = _CountingBackend()
    previous = set_backend(mock)
    try:
        # Public path, owner path, pool refill and ciphertext scalar multiply
        # all route through the seam.
        assert precompute_obfuscator(public, 12345) == pow(12345, public.n, public.n_squared)
        assert precompute_obfuscator(public, 12345, private_key=private) == pow(
            12345, public.n, public.n_squared
        )
        pool = RandomizerPool(public, random.Random(9), private_key=private)
        before = len(mock.seen)
        pool.warm(2)
        # Each owner-side sample is exactly the two half-exponent lifts.
        lifts = [(private.p, private.p_squared), (private.q, private.q_squared)]
        assert mock.seen[before:] == lifts * 2
        ciphertext = pool.encrypt(7)
        assert private.decrypt(ciphertext.multiply_plaintext(6)) == 42
        assert len(mock.seen) >= 5
    finally:
        set_backend(previous)
    assert backend() is previous


def test_set_backend_none_reautodetects():
    previous = set_backend(_CountingBackend())
    set_backend(None)
    assert backend().name == previous.name
    set_backend(previous)
    assert backend() is previous
