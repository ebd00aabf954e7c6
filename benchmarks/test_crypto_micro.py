"""Micro-benchmarks of the cryptographic primitives.

Not a figure of the paper, but the primitive costs underlying Figure 5:
Paillier encryption/decryption/homomorphic addition at the paper's key
sizes and the garbled-circuit secure comparison used by Protocol 2.

The suite measures both sides of the acceleration layer so the speedups
are tracked explicitly (``benchmarks/run_crypto_bench.py`` distills them
into ``BENCH_crypto.json``):

* ``test_paillier_encrypt`` — the production *pooled* online path (single
  mulmod with a precomputed obfuscator) vs. ``test_paillier_encrypt_fresh``
  — the pre-acceleration full exponentiation ("before" baseline);
* ``test_paillier_decrypt`` — the CRT fast path vs.
  ``test_paillier_decrypt_textbook`` — the ``L(c^lam) * mu`` formula the
  seed implementation used;
* ``test_paillier_obfuscator_precompute`` — the *offline* cost a pool pays
  per entry during idle time.
"""

import random

import pytest
from conftest import scaled

from repro.crypto import (
    ComparisonPool,
    RandomizerPool,
    generate_keypair,
    homomorphic_sum,
    secure_greater_than,
)

KEY_SIZES = scaled((256, 512), (512, 1024), (512, 1024, 2048), smoke=(256,))

#: pedantic schedule for the pooled path: the pool is pre-warmed with
#: exactly this many obfuscators so no benchmark iteration ever hits the
#: online fallback (each entry is still used exactly once).
POOLED_ROUNDS = 30
POOLED_ITERATIONS = 20


@pytest.fixture(scope="module")
def keypairs():
    return {bits: generate_keypair(bits, random.Random(bits)) for bits in KEY_SIZES}


@pytest.mark.parametrize("bits", KEY_SIZES)
def test_paillier_encrypt(benchmark, keypairs, bits):
    """Online encryption through a warmed randomizer pool (the fast path)."""
    keypair = keypairs[bits]
    pool = RandomizerPool(
        keypair.public_key, random.Random(1), private_key=keypair.private_key
    )
    # Headroom covers pytest-benchmark's extra calibration calls.
    pool.warm(POOLED_ROUNDS * POOLED_ITERATIONS + 16)
    result = benchmark.pedantic(
        lambda: pool.encrypt(123456789),
        rounds=POOLED_ROUNDS,
        iterations=POOLED_ITERATIONS,
    )
    assert pool.fallback_count == 0
    assert keypair.private_key.decrypt(result) == 123456789


@pytest.mark.parametrize("bits", KEY_SIZES)
def test_paillier_encrypt_fresh(benchmark, keypairs, bits):
    """Baseline: fresh encryption with an online ``r^n mod n^2`` ("before")."""
    public = keypairs[bits].public_key
    benchmark(lambda: public.encrypt(123456789))


@pytest.mark.parametrize("bits", KEY_SIZES)
def test_paillier_obfuscator_precompute(benchmark, keypairs, bits):
    """Offline cost of one pool obfuscator (owner's half-exponent lifts)."""
    keypair = keypairs[bits]
    pool = RandomizerPool(
        keypair.public_key, random.Random(2), private_key=keypair.private_key
    )
    benchmark(lambda: pool.refill(1))


@pytest.mark.parametrize("bits", KEY_SIZES)
def test_paillier_decrypt(benchmark, keypairs, bits):
    """CRT decryption (the production path)."""
    keypair = keypairs[bits]
    ciphertext = keypair.public_key.encrypt(123456789)
    assert benchmark(lambda: keypair.private_key.decrypt(ciphertext)) == 123456789


@pytest.mark.parametrize("bits", KEY_SIZES)
def test_paillier_decrypt_textbook(benchmark, keypairs, bits):
    """Baseline: the CRT-free textbook decryption the seed used ("before")."""
    keypair = keypairs[bits]
    ciphertext = keypair.public_key.encrypt(123456789)
    assert benchmark(lambda: keypair.private_key.decrypt_raw_textbook(ciphertext)) == 123456789


@pytest.mark.parametrize("bits", KEY_SIZES)
def test_paillier_homomorphic_add(benchmark, keypairs, bits):
    keypair = keypairs[bits]
    a = keypair.public_key.encrypt(1000)
    b = keypair.public_key.encrypt(-300)
    result = benchmark(lambda: a + b)
    assert keypair.private_key.decrypt(result) == 700


@pytest.mark.parametrize("bits", KEY_SIZES)
def test_paillier_homomorphic_sum_batched(benchmark, keypairs, bits):
    """Chunked product with deferred reduction over a 64-ciphertext batch."""
    keypair = keypairs[bits]
    values = list(range(64))
    ciphertexts = keypair.public_key.encrypt_many(values, rng=random.Random(3))
    result = benchmark(lambda: homomorphic_sum(ciphertexts, keypair.public_key))
    assert keypair.private_key.decrypt(result) == sum(values)


@pytest.mark.parametrize("bit_width", (32, 64))
def test_garbled_secure_comparison(benchmark, bit_width):
    """The inline path: garble + public-key OTs on every call ("before")."""
    rng = random.Random(bit_width)
    result = benchmark(
        lambda: secure_greater_than(2**bit_width - 2, 2**bit_width - 3, bit_width=bit_width, rng=rng)
    )
    assert result.result is True


#: prepared instances per pooled-comparison benchmark run (each round
#: consumes exactly one — the one-shot invariant holds under benchmarking).
POOLED_COMPARISON_ROUNDS = 20


@pytest.mark.parametrize("bit_width", (32, 64))
def test_garbled_comparison_pooled_online(benchmark, bit_width):
    """The pooled online path: symmetric-key evaluation of prepared instances.

    Garbling and the base OTs happened at warm time (offline); each round
    draws a fresh instance from the pool and pays only label transfer
    (XOR-derandomized OT extension) plus per-gate hashing.
    """
    pool = ComparisonPool(bit_width)
    pool.warm(POOLED_COMPARISON_ROUNDS)

    def setup():
        instance = pool.take()
        assert instance is not None, "pool drained mid-benchmark"
        return (instance,), {}

    def run(instance):
        return instance.evaluate(2**bit_width - 2, 2**bit_width - 3)

    result = benchmark.pedantic(run, setup=setup, rounds=POOLED_COMPARISON_ROUNDS)
    assert result.result is True
    assert pool.fallback_count == 0
