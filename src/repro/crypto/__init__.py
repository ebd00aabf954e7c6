"""Cryptographic substrate for the PEM reproduction.

Contains everything the PEM protocols need, implemented from scratch on the
Python standard library:

* :mod:`repro.crypto.bigint` — the bigint seam: ``powmod`` backed by
  libcrypto's constant-time Montgomery ladder over resident per-modulus
  records (builtin ``pow`` as the fallback) behind every hot modular
  exponentiation below.
* :mod:`repro.crypto.primes` — Miller--Rabin primality and prime generation.
* :mod:`repro.crypto.paillier` — the Paillier additively homomorphic
  cryptosystem (keygen, CRT-accelerated encrypt/decrypt, homomorphic ops,
  serialization).
* :mod:`repro.crypto.accel` — offline acceleration (precomputed randomizer
  pools that make online encryption a single modular multiplication, plus
  the fixed-base comb table).
* :mod:`repro.crypto.fixedpoint` — fixed-point encoding of reals for
  encryption.
* :mod:`repro.crypto.circuits` — boolean circuits and the comparator's builder.
* :mod:`repro.crypto.ot` — batched 1-out-of-2 oblivious transfer (Naor--Pinkas).
* :mod:`repro.crypto.otext` — IKNP-style OT extension (constant base OTs,
  symmetric-key transfers thereafter).
* :mod:`repro.crypto.garbled` — Yao garbled circuits (free-XOR labels and
  half-gate AND tables).
* :mod:`repro.crypto.gc_pool` — offline pools of prepared garbled
  comparisons (the garbled-circuit analogue of :mod:`repro.crypto.accel`).
* :mod:`repro.crypto.secure_comparison` — the Fairplay-style secure
  comparison used by Private Market Evaluation.
"""

from .accel import (
    FixedBaseTable,
    RandomizerPool,
    backend,
    precompute_obfuscator,
    set_backend,
)
from .fixedpoint import DEFAULT_PRECISION, FixedPointCodec
from .gc_pool import ComparisonPool, PreparedComparison
from .paillier import (
    PaillierCiphertext,
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from .primes import generate_prime, is_probable_prime
from .secure_comparison import (
    SecureComparisonResult,
    prepared_greater_than,
    prepared_less_than,
    secure_greater_than,
    secure_less_than,
)

__all__ = [
    "DEFAULT_PRECISION",
    "FixedPointCodec",
    "PaillierCiphertext",
    "PaillierKeyPair",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "RandomizerPool",
    "ComparisonPool",
    "PreparedComparison",
    "precompute_obfuscator",
    "FixedBaseTable",
    "backend",
    "set_backend",
    "generate_keypair",
    "generate_prime",
    "is_probable_prime",
    "SecureComparisonResult",
    "secure_greater_than",
    "secure_less_than",
    "prepared_greater_than",
    "prepared_less_than",
]
