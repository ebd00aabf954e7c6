"""Prime number generation and primality testing.

The Paillier cryptosystem (:mod:`repro.crypto.paillier`) and the oblivious
transfer group setup (:mod:`repro.crypto.ot`) both need large random primes.
This module provides a deterministic Miller--Rabin primality test for small
inputs, a probabilistic Miller--Rabin test for large inputs, and random prime
generation with a caller-supplied random source so that key generation can be
made reproducible in tests.
"""

from __future__ import annotations

import random
from typing import Optional

from .bigint import powmod

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "generate_safe_prime",
    "next_prime",
    "SMALL_PRIMES",
]

# Small primes used for fast trial division before the Miller--Rabin rounds.
SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
)

# Witnesses that make Miller--Rabin deterministic for all n < 3.3 * 10**24.
_DETERMINISTIC_WITNESSES: tuple[int, ...] = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """Return True if ``a`` is *not* a witness for the compositeness of ``n``."""
    x = powmod(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 40, rng: Optional[random.Random] = None) -> bool:
    """Test whether ``n`` is prime.

    Uses trial division by :data:`SMALL_PRIMES`, then Miller--Rabin.  For
    ``n`` below a well-known bound the deterministic witness set is used and
    the answer is exact; above it the test is probabilistic with error at
    most ``4**-rounds``.

    Args:
        n: candidate integer.
        rounds: number of random Miller--Rabin rounds for large ``n``.
        rng: optional random source for witness selection (defaults to the
            OS CSPRNG — never the module-level generator, whose global
            state a seeded caller may rely on staying untouched).

    Returns:
        True if ``n`` is (probably) prime.
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if n < _DETERMINISTIC_BOUND:
        witnesses = [a for a in _DETERMINISTIC_WITNESSES if a < n]
        return all(_miller_rabin_round(n, a, d, r) for a in witnesses)

    rng = rng or random.SystemRandom()
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if not _miller_rabin_round(n, a, d, r):
            return False
    return True


def generate_prime(bits: int, rng: Optional[random.Random] = None) -> int:
    """Generate a random prime with exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such primes
    has exactly ``2 * bits`` bits (as required for a Paillier modulus of a
    stated key size), and the bottom bit is forced to 1 so the candidate is
    odd.

    Args:
        bits: bit length of the prime (must be >= 8).
        rng: optional random source (defaults to ``random.SystemRandom``).

    Returns:
        a prime integer ``p`` with ``p.bit_length() == bits``.
    """
    if bits < 8:
        raise ValueError(f"prime bit length must be >= 8, got {bits}")
    rng = rng or random.SystemRandom()
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate


def generate_safe_prime(bits: int, rng: Optional[random.Random] = None) -> int:
    """Generate a safe prime ``p = 2q + 1`` with ``q`` prime.

    Safe primes give a prime-order subgroup for the Diffie--Hellman based
    oblivious transfer.  Because safe-prime generation is slow, callers that
    only need tests to run quickly should use small bit sizes (e.g. 128).

    Args:
        bits: bit length of the safe prime ``p``.
        rng: optional random source.

    Returns:
        a safe prime of the requested bit length.
    """
    if bits < 16:
        raise ValueError(f"safe prime bit length must be >= 16, got {bits}")
    rng = rng or random.SystemRandom()
    while True:
        q = generate_prime(bits - 1, rng)
        p = 2 * q + 1
        # The caller's rng is threaded through so a seeded run stays fully
        # reproducible and never touches the module-level generator.
        if p.bit_length() == bits and is_probable_prime(p, rng=rng):
            return p


def next_prime(n: int) -> int:
    """Return the smallest prime strictly greater than ``n``."""
    candidate = max(n + 1, 2)
    if candidate % 2 == 0 and candidate != 2:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 2 if candidate != 2 else 1
    return candidate
