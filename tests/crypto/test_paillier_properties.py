"""Property-based tests (hypothesis) for Paillier and fixed-point encoding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import shared_keypair
from repro.crypto.accel import RandomizerPool
from repro.crypto.fixedpoint import FixedPointCodec

# One shared small key pair for all property tests, drawn from the
# session-wide cache (tests/helpers.py) so no other module re-derives it.
_KEYPAIR = shared_keypair(128, 2024)
_LIMIT = _KEYPAIR.public_key.max_plaintext

# Production-grade key sizes for the CRT / pooled-encryption equivalence
# properties; 256/512 keep the suite fast while exercising real multi-limb
# arithmetic.  Resolved lazily through the shared cache — deriving them at
# import time used to charge every pytest invocation at collection.
_SIZED_BITS = (256, 512)


def _sized_keypair(bits):
    return shared_keypair(bits, bits)

# Keep values far from the overflow bound so that sums of two stay valid.
values = st.integers(min_value=-(_LIMIT // 4), max_value=_LIMIT // 4)
scalars = st.integers(min_value=-1000, max_value=1000)


@settings(max_examples=40, deadline=None)
@given(values)
def test_encrypt_decrypt_roundtrip(value):
    ct = _KEYPAIR.public_key.encrypt(value)
    assert _KEYPAIR.private_key.decrypt(ct) == value


@settings(max_examples=40, deadline=None)
@given(values, values)
def test_homomorphic_addition_property(a, b):
    ct = _KEYPAIR.public_key.encrypt(a).add_ciphertext(_KEYPAIR.public_key.encrypt(b))
    assert _KEYPAIR.private_key.decrypt(ct) == a + b


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-(_LIMIT // 2000), max_value=_LIMIT // 2000), scalars)
def test_homomorphic_scalar_property(a, k):
    # |a * k| stays within the representable plaintext range by construction.
    ct = _KEYPAIR.public_key.encrypt(a).multiply_plaintext(k)
    assert _KEYPAIR.private_key.decrypt(ct) == a * k


@settings(max_examples=40, deadline=None)
@given(values, values)
def test_homomorphic_addition_commutes(a, b):
    ct_ab = _KEYPAIR.public_key.encrypt(a).add_ciphertext(_KEYPAIR.public_key.encrypt(b))
    ct_ba = _KEYPAIR.public_key.encrypt(b).add_ciphertext(_KEYPAIR.public_key.encrypt(a))
    assert _KEYPAIR.private_key.decrypt(ct_ab) == _KEYPAIR.private_key.decrypt(ct_ba)


@pytest.mark.parametrize("bits", _SIZED_BITS)
@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000), st.data())
def test_crt_decrypt_equals_textbook(bits, value, data):
    """CRT decryption and the textbook formula agree on every residue."""
    keypair = _sized_keypair(bits)
    limit = keypair.public_key.max_plaintext
    # Mix small signed values with values drawn across the full range.
    wide = data.draw(st.integers(min_value=-limit, max_value=limit))
    for plaintext in (value, wide):
        ct = keypair.public_key.encrypt(plaintext)
        assert keypair.private_key.decrypt_raw(ct) == keypair.private_key.decrypt_raw_textbook(ct)
        assert keypair.private_key.decrypt(ct) == plaintext


@pytest.mark.parametrize("bits", _SIZED_BITS)
def test_crt_decrypt_edge_residues(bits):
    """Edge residues (0, ±1, ±max_plaintext) survive both decrypt paths."""
    keypair = _sized_keypair(bits)
    limit = keypair.public_key.max_plaintext
    for plaintext in (0, 1, -1, limit, -limit, limit - 1, -(limit - 1)):
        ct = keypair.public_key.encrypt(plaintext)
        assert keypair.private_key.decrypt_raw(ct) == keypair.private_key.decrypt_raw_textbook(ct)
        assert keypair.private_key.decrypt(ct) == plaintext


@pytest.mark.parametrize("bits", _SIZED_BITS)
@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=-10**9, max_value=10**9))
def test_pooled_encrypt_equals_fresh(bits, value):
    """A pooled-obfuscator ciphertext decrypts identically to a fresh one."""
    keypair = _sized_keypair(bits)
    pool = RandomizerPool(
        keypair.public_key, random.Random(value), private_key=keypair.private_key
    )
    pool.warm(1)
    pooled = pool.encrypt(value)
    fresh = keypair.public_key.encrypt(value)
    assert keypair.private_key.decrypt(pooled) == keypair.private_key.decrypt(fresh) == value


@pytest.mark.parametrize("bits", _SIZED_BITS)
def test_pooled_encrypt_edge_plaintexts(bits):
    keypair = _sized_keypair(bits)
    limit = keypair.public_key.max_plaintext
    pool = RandomizerPool(
        keypair.public_key, random.Random(bits), private_key=keypair.private_key
    )
    pool.warm(4)
    for plaintext in (limit, -limit, 0, -1):
        assert keypair.private_key.decrypt(pool.encrypt(plaintext)) == plaintext
    # The fourth edge value drained the pool exactly; a fifth falls back.
    assert pool.fallback_count == 0
    assert keypair.private_key.decrypt(pool.encrypt(limit)) == limit
    assert pool.fallback_count == 1


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False))
def test_fixedpoint_roundtrip_within_resolution(value):
    codec = FixedPointCodec(precision=4)
    decoded = codec.decode(codec.encode(value))
    assert abs(decoded - value) <= 0.5 / codec.scale + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-1e5, max_value=1e5, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e5, max_value=1e5, allow_nan=False, allow_infinity=False),
)
def test_fixedpoint_addition_compatible_with_encoding(a, b):
    codec = FixedPointCodec(precision=4)
    encoded_sum = codec.encode(a) + codec.encode(b)
    assert abs(codec.decode(encoded_sum) - (a + b)) <= 1 / codec.scale + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=20,
    )
)
def test_encrypted_fixedpoint_aggregation_matches_float_sum(values_list):
    codec = FixedPointCodec(precision=4)
    total = None
    for value in values_list:
        ct = _KEYPAIR.public_key.encrypt(codec.encode(value))
        total = ct if total is None else total.add_ciphertext(ct)
    decrypted = codec.decode(_KEYPAIR.private_key.decrypt(total))
    assert abs(decrypted - sum(values_list)) <= len(values_list) * (1 / codec.scale)
