"""Unit tests for the Paillier cryptosystem."""

import random

import pytest

from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierError,
    PaillierPublicKey,
    generate_keypair,
)


def test_roundtrip_positive(keypair):
    for value in (0, 1, 42, 10**6, keypair.public_key.max_plaintext):
        assert keypair.private_key.decrypt(keypair.public_key.encrypt(value)) == value


def test_roundtrip_negative(keypair):
    for value in (-1, -42, -(10**6), -keypair.public_key.max_plaintext):
        assert keypair.private_key.decrypt(keypair.public_key.encrypt(value)) == value


def test_encryption_is_randomized(keypair):
    a = keypair.public_key.encrypt(7)
    b = keypair.public_key.encrypt(7)
    assert a.value != b.value
    assert keypair.private_key.decrypt(a) == keypair.private_key.decrypt(b) == 7


def test_homomorphic_addition(keypair):
    c = keypair.public_key.encrypt(100).add_ciphertext(keypair.public_key.encrypt(-30))
    assert keypair.private_key.decrypt(c) == 70


def test_homomorphic_plaintext_addition(keypair):
    # A known plaintext enters as its deterministic encoding g^k (obfuscator 1).
    public = keypair.public_key
    c = public.encrypt(100).add_ciphertext(public.raw_encrypt(23, 1))
    assert keypair.private_key.decrypt(c) == 123


def test_homomorphic_scalar_multiplication(keypair):
    c = keypair.public_key.encrypt(12).multiply_plaintext(5)
    assert keypair.private_key.decrypt(c) == 60
    c = keypair.public_key.encrypt(-7).multiply_plaintext(3)
    assert keypair.private_key.decrypt(c) == -21


def test_homomorphic_subtraction_and_negation(keypair):
    a = keypair.public_key.encrypt(50)
    b = keypair.public_key.encrypt(8)
    assert keypair.private_key.decrypt(a.add_ciphertext(b.multiply_plaintext(-1))) == 42
    assert keypair.private_key.decrypt(a.add_ciphertext(keypair.public_key.raw_encrypt(-10, 1))) == 40
    assert keypair.private_key.decrypt(a.multiply_plaintext(-1)) == -50


def test_plaintext_out_of_range_rejected(keypair):
    limit = keypair.public_key.max_plaintext
    with pytest.raises(PaillierError):
        keypair.public_key.encrypt(limit + 1)
    with pytest.raises(PaillierError):
        keypair.public_key.encrypt(-limit - 1)


def test_overflow_detection(keypair):
    limit = keypair.public_key.max_plaintext
    big = keypair.public_key.encrypt(limit)
    overflowed = big.add_ciphertext(keypair.public_key.encrypt(limit))
    with pytest.raises(PaillierError):
        keypair.private_key.decrypt(overflowed)


def test_serialization_roundtrip(keypair):
    c = keypair.public_key.encrypt(987654321)
    data = c.to_bytes()
    assert len(data) == keypair.public_key.ciphertext_byte_length()
    restored = PaillierCiphertext.from_bytes(data, keypair.public_key)
    assert keypair.private_key.decrypt(restored) == 987654321


def test_serialization_rejects_wrong_length(keypair):
    with pytest.raises(PaillierError):
        PaillierCiphertext.from_bytes(b"\x01\x02", keypair.public_key)


def test_cross_key_operations_rejected(keypair):
    other = generate_keypair(128, random.Random(99))
    a = keypair.public_key.encrypt(1)
    b = other.public_key.encrypt(2)
    with pytest.raises(PaillierError):
        a.add_ciphertext(b)
    with pytest.raises(PaillierError):
        other.private_key.decrypt(a)


def test_keypair_generation_properties():
    kp = generate_keypair(128, random.Random(5))
    assert kp.public_key.n.bit_length() == 128
    assert kp.key_size == 128
    assert kp.private_key.p * kp.private_key.q == kp.public_key.n


def test_keypair_rejects_small_key():
    with pytest.raises(PaillierError):
        generate_keypair(32)


def test_public_key_validation():
    with pytest.raises(PaillierError):
        PaillierPublicKey(n=4)


def test_decrypt_constants_cached_at_construction(keypair):
    # lam/mu are plain attributes computed once in __post_init__, not
    # recomputed per decrypt_raw call.
    private = keypair.private_key
    assert private.lam > 0
    assert (private.lam % keypair.public_key.n) * private.mu % keypair.public_key.n == 1


def test_crt_and_textbook_decrypt_agree(keypair):
    for value in (0, 5, -5, keypair.public_key.max_plaintext):
        ct = keypair.public_key.encrypt(value)
        assert keypair.private_key.decrypt_raw(ct) == keypair.private_key.decrypt_raw_textbook(ct)


def test_encrypt_strict_flag(keypair):
    # strict=True verifies gcd(r, n) == 1; for a two-prime modulus the
    # check passes for any realistic draw.
    ct = keypair.public_key.encrypt(321, rng=random.Random(0), strict=True)
    assert keypair.private_key.decrypt(ct) == 321


def test_encrypt_with_precomputed_obfuscator(keypair):
    n_sq = keypair.public_key.n_squared
    obf = pow(12345, keypair.public_key.n, n_sq)
    ct = keypair.public_key.encrypt(777, obfuscator=obf)
    assert keypair.private_key.decrypt(ct) == 777


def test_decrypt_many_roundtrip(keypair):
    public = keypair.public_key
    values = [0, 1, -1, 999, -999]
    obfuscators = [pow(r, public.n, public.n_squared) for r in (17, 23, 29, 31, 37)]
    cts = [public.encrypt(v, obfuscator=o) for v, o in zip(values, obfuscators)]
    assert keypair.private_key.decrypt_many(cts) == values


def test_encrypt_zero_rerandomizes(keypair):
    c = keypair.public_key.encrypt(5)
    # r -> r^n is injective on Z_n*, so only r = 1 leaves c unchanged:
    # chance 1/n, below 2^-126 for the 128-bit test modulus.
    rerandomized = c.add_ciphertext(keypair.public_key.encrypt(0))
    assert rerandomized.value != c.value
    assert keypair.private_key.decrypt(rerandomized) == 5
