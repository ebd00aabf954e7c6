"""Paillier additively homomorphic cryptosystem.

PEM's Private Market Evaluation (Protocol 2), Private Pricing (Protocol 3)
and Private Distribution (Protocol 4) all rely on the additive homomorphism
of the Paillier cryptosystem: given ciphertexts ``E(a)`` and ``E(b)``,
``E(a) * E(b) mod n^2`` is a valid encryption of ``a + b``.  This module
implements key generation, encryption, decryption and the homomorphic
operations used by the protocols, with byte-level ciphertext serialization
so the network layer can account for real bandwidth (Table I in the paper).

The implementation follows the standard Paillier scheme with ``g = n + 1``,
which makes encryption a single modular exponentiation of the randomizer:

    E(m, r) = (1 + m*n) * r^n  mod n^2

Decryption — CRT fast path
--------------------------

Textbook decryption computes ``L(c^lambda mod n^2) * mu mod n`` with
``lambda = lcm(p-1, q-1)`` — one full-width exponentiation modulo ``n^2``
with a full-width exponent.  Because the private key knows the
factorization ``n = p*q``, decryption splits into two half-width
exponentiations via the Chinese Remainder Theorem:

    m_p = L_p(c^(p-1) mod p^2) * h_p  mod p
    m_q = L_q(c^(q-1) mod q^2) * h_q  mod q
    m   = CRT(m_p, m_q)                        (Garner recombination)

where ``L_p(x) = (x - 1) // p`` and ``h_p = L_p(g^(p-1) mod p^2)^-1 mod p``.
With ``g = n + 1`` the constant collapses to ``h_p = ((p-1)*q)^-1 mod p``
because ``(n+1)^(p-1) = 1 + (p-1)*n (mod p^2)``.  Both the moduli
(``p^2`` vs. ``n^2``) and the exponents (``p-1`` vs. ``lambda``) are half
width, so CRT decryption runs ~3-4x faster than the textbook formula; all
constants (``h_p``, ``h_q``, ``p^2``, ``q^2``, the Garner inverse, plus the
textbook ``lambda``/``mu`` kept for cross-checking) are precomputed once at
key construction.

Offline randomizer pools
------------------------

Encryption cost is dominated by the obfuscator ``r^n mod n^2``, which is
independent of the plaintext.  :class:`repro.crypto.accel.RandomizerPool`
precomputes obfuscators during idle time so that online encryption is a
single modular multiplication (pass the pooled value via the
``obfuscator=`` argument of :meth:`PaillierPublicKey.encrypt`).

**Security caveat:** a pooled obfuscator is a one-time value.  Reusing an
entry for two encryptions makes the ciphertext pair linkable (their ratio
reveals the plaintext difference to anyone who can guess one plaintext),
exactly like reusing a one-time pad.  The pool therefore hands out each
entry exactly once and falls back to fresh online exponentiation when
drained.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from .bigint import powmod
from .primes import generate_prime

__all__ = [
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "PaillierCiphertext",
    "PaillierKeyPair",
    "generate_keypair",
    "homomorphic_sum",
]

#: Number of ciphertext factors multiplied between modular reductions in
#: :func:`homomorphic_sum`.  Multiplying a handful of ``2k``-bit values into
#: one integer before reducing replaces per-factor ``mod n^2`` divisions
#: with one division per chunk, which is measurably faster for the chain
#: aggregations the protocols run.
_SUM_CHUNK = 8


class PaillierError(Exception):
    """Raised for malformed Paillier operations (wrong key, bad ciphertext)."""


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public half of a Paillier key pair.

    Attributes:
        n: the RSA-style modulus ``p * q``.
        key_size: nominal key size in bits (bit length of ``n``).
    """

    n: int
    key_size: int = field(default=0)

    def __post_init__(self) -> None:
        if self.n < 6:
            raise PaillierError(f"modulus too small: {self.n}")
        if self.key_size == 0:
            object.__setattr__(self, "key_size", self.n.bit_length())

    @property
    def n_squared(self) -> int:
        """The ciphertext modulus ``n^2``."""
        return self.n * self.n

    @property
    def max_plaintext(self) -> int:
        """Largest plaintext that can be encrypted without wrap-around.

        We reserve the top third of the plaintext space for detecting
        negative numbers (encoded as ``n - |x|``); see
        :meth:`decrypt_signed` on the private key.
        """
        return self.n // 3

    def ciphertext_byte_length(self) -> int:
        """Number of bytes needed to serialize one ciphertext."""
        return (self.n_squared.bit_length() + 7) // 8

    def raw_encrypt(self, plaintext: int, obfuscator: int) -> "PaillierCiphertext":
        """Combine an encoded plaintext with a ready-made obfuscator.

        ``obfuscator`` must be a fresh ``r^n mod n^2`` value (e.g. from a
        :class:`~repro.crypto.accel.RandomizerPool`); the online work is a
        single modular multiplication.
        """
        m = self._encode(plaintext)
        n_sq = self.n_squared
        c = ((1 + m * self.n) % n_sq) * obfuscator % n_sq
        return PaillierCiphertext(value=c, public_key=self)

    def encrypt(
        self,
        plaintext: int,
        rng: Optional[random.Random] = None,
        obfuscator: Optional[int] = None,
        strict: bool = False,
    ) -> "PaillierCiphertext":
        """Encrypt an integer plaintext.

        Negative plaintexts are mapped into the upper half of ``Z_n``
        (``n - |x|``), which keeps the additive homomorphism valid as long
        as intermediate sums stay within ``±max_plaintext``.

        Args:
            plaintext: integer in ``[-max_plaintext, max_plaintext]``.
            rng: optional random source for the randomizer ``r``.
            obfuscator: optional precomputed ``r^n mod n^2`` value (from a
                randomizer pool); skips the online exponentiation entirely.
            strict: verify ``gcd(r, n) == 1`` for the drawn randomizer.
                For a well-formed two-prime modulus a bad draw requires
                guessing a factor of ``n`` (probability ~``2^-(bits/2)``),
                so the check is skipped by default.

        Returns:
            a :class:`PaillierCiphertext` under this public key.
        """
        if obfuscator is not None:
            return self.raw_encrypt(plaintext, obfuscator)
        m = self._encode(plaintext)
        rng = rng or random.SystemRandom()
        n = self.n
        n_sq = self.n_squared
        r = rng.randrange(1, n)
        if strict and math.gcd(r, n) != 1:
            raise PaillierError("randomizer shares a factor with the modulus")
        # g = n + 1  =>  g^m = 1 + m*n (mod n^2)
        c = ((1 + m * n) % n_sq) * powmod(r, n, n_sq) % n_sq
        return PaillierCiphertext(value=c, public_key=self)

    def encrypt_many(
        self,
        plaintexts: Sequence[int],
        rng: Optional[random.Random] = None,
        obfuscators: Optional[Sequence[int]] = None,
    ) -> List["PaillierCiphertext"]:
        """Encrypt a batch of plaintexts.

        Args:
            plaintexts: the values to encrypt.
            rng: optional random source for fresh randomizers.
            obfuscators: optional precomputed obfuscators, one per
                plaintext (shorter sequences fall back to fresh
                randomizers for the tail).

        Returns:
            one ciphertext per plaintext, in order.
        """
        obfuscators = obfuscators or ()
        out: List[PaillierCiphertext] = []
        for index, value in enumerate(plaintexts):
            obf = obfuscators[index] if index < len(obfuscators) else None
            out.append(self.encrypt(value, rng=rng, obfuscator=obf))
        return out

    def encrypt_zero(self, rng: Optional[random.Random] = None) -> "PaillierCiphertext":
        """Encrypt zero — useful for re-randomizing ciphertexts."""
        return self.encrypt(0, rng=rng)

    def _encode(self, plaintext: int) -> int:
        limit = self.max_plaintext
        if plaintext > limit or plaintext < -limit:
            raise PaillierError(
                f"plaintext {plaintext} outside the representable range ±{limit}"
            )
        return plaintext % self.n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PaillierPublicKey) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("paillier-pk", self.n))


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Private half of a Paillier key pair.

    All decryption constants are derived once in ``__post_init__``:

    * ``lam`` / ``mu`` — the textbook ``lcm(p-1, q-1)`` and
      ``L(g^lam mod n^2)^-1 mod n`` (kept for the reference decryption
      path and cross-checks),
    * ``p^2`` / ``q^2``, the half-width CRT constants ``h_p`` / ``h_q``,
      and the Garner inverse ``q^-1 mod p`` used by the CRT fast path.
    """

    public_key: PaillierPublicKey
    p: int
    q: int
    #: cached Carmichael lambda(n) = lcm(p-1, q-1).
    lam: int = field(init=False, repr=False, compare=False, default=0)
    #: cached textbook decryption constant mu = (lam mod n)^-1 mod n.
    mu: int = field(init=False, repr=False, compare=False, default=0)
    #: cached half-width moduli ``p^2`` / ``q^2`` (CRT decryption and the
    #: owner-side obfuscator lifts in :mod:`repro.crypto.accel`).
    p_squared: int = field(init=False, repr=False, compare=False, default=0)
    q_squared: int = field(init=False, repr=False, compare=False, default=0)
    _hp: int = field(init=False, repr=False, compare=False, default=0)
    _hq: int = field(init=False, repr=False, compare=False, default=0)
    _q_inv_p: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if p * q != self.public_key.n:
            raise PaillierError("p * q does not match the public modulus")
        n = self.public_key.n
        set_ = object.__setattr__
        set_(self, "lam", math.lcm(p - 1, q - 1))
        # mu = (L(g^lambda mod n^2))^-1 mod n; with g = n+1, L(g^lam) = lam mod n.
        set_(self, "mu", pow(self.lam % n, -1, n))
        set_(self, "p_squared", p * p)
        set_(self, "q_squared", q * q)
        # With g = n+1: L_p((n+1)^(p-1) mod p^2) = (p-1)*q mod p.
        set_(self, "_hp", pow(((p - 1) * q) % p, -1, p))
        set_(self, "_hq", pow(((q - 1) * p) % q, -1, q))
        set_(self, "_q_inv_p", pow(q % p, -1, p))

    def _check(self, ciphertext: "PaillierCiphertext") -> int:
        if ciphertext.public_key != self.public_key:
            raise PaillierError("ciphertext was encrypted under a different key")
        c = ciphertext.value
        if not (0 < c < self.public_key.n_squared):
            raise PaillierError("ciphertext value outside Z_{n^2}")
        return c

    def decrypt_raw(self, ciphertext: "PaillierCiphertext") -> int:
        """Decrypt to the raw residue in ``[0, n)`` (no sign decoding).

        Uses the CRT fast path (see the module docstring): two half-width
        exponentiations modulo ``p^2`` and ``q^2`` followed by Garner
        recombination.
        """
        c = self._check(ciphertext)
        p, q = self.p, self.q
        m_p = ((powmod(c % self.p_squared, p - 1, self.p_squared) - 1) // p) * self._hp % p
        m_q = ((powmod(c % self.q_squared, q - 1, self.q_squared) - 1) // q) * self._hq % q
        # Garner: m = m_q + q * ((m_p - m_q) * q^-1 mod p)  in [0, n).
        return m_q + q * ((m_p - m_q) * self._q_inv_p % p)

    def decrypt_raw_textbook(self, ciphertext: "PaillierCiphertext") -> int:
        """Reference CRT-free decryption (``L(c^lam mod n^2) * mu mod n``).

        Kept as the independent cross-check for the CRT fast path (the
        equivalence is asserted by the property-test suite) and as the
        "before" measurement of the crypto micro-benchmarks.  It stays on
        builtin ``pow`` on purpose: the oracle must not share the bigint
        library (:mod:`repro.crypto.bigint`) it cross-checks.
        """
        c = self._check(ciphertext)
        n = self.public_key.n
        # staticcheck: ignore[powmod-through-seam] -- independent oracle
        u = pow(c, self.lam, self.public_key.n_squared)
        return ((u - 1) // n) * self.mu % n

    def _decode(self, m: int) -> int:
        n = self.public_key.n
        limit = self.public_key.max_plaintext
        if m <= limit:
            return m
        if m >= n - limit:
            return m - n
        raise PaillierError(
            "decrypted value falls in the overflow guard band; "
            "an additive overflow occurred"
        )

    def decrypt(self, ciphertext: "PaillierCiphertext") -> int:
        """Decrypt and decode a signed integer.

        Residues above ``n - max_plaintext`` are interpreted as negative
        numbers; residues in the middle third raise, because they can only
        arise from overflow.
        """
        return self._decode(self.decrypt_raw(ciphertext))

    def decrypt_many(self, ciphertexts: Iterable["PaillierCiphertext"]) -> List[int]:
        """Decrypt a batch of ciphertexts to signed integers, in order."""
        return [self._decode(self.decrypt_raw(ct)) for ct in ciphertexts]


@dataclass(frozen=True)
class PaillierKeyPair:
    """A public/private Paillier key pair owned by one PEM agent."""

    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey

    @property
    def key_size(self) -> int:
        return self.public_key.key_size


class PaillierCiphertext:
    """An encryption of an integer under a specific Paillier public key.

    Supports the homomorphic operations PEM needs:

    * ``c1 + c2`` — ciphertext of the plaintext sum,
    * ``c + k`` for an ``int`` — ciphertext of ``m + k``,
    * ``c * k`` for an ``int`` — ciphertext of ``m * k``.
    """

    __slots__ = ("value", "public_key")

    def __init__(self, value: int, public_key: PaillierPublicKey) -> None:
        self.value = value % public_key.n_squared
        self.public_key = public_key

    # -- homomorphic operations -------------------------------------------------

    def add_ciphertext(self, other: "PaillierCiphertext") -> "PaillierCiphertext":
        """Homomorphically add another ciphertext (same public key)."""
        if self.public_key != other.public_key:
            raise PaillierError("cannot combine ciphertexts under different keys")
        n_sq = self.public_key.n_squared
        return PaillierCiphertext((self.value * other.value) % n_sq, self.public_key)

    def add_plaintext(self, scalar: int) -> "PaillierCiphertext":
        """Homomorphically add a plaintext integer."""
        n = self.public_key.n
        n_sq = self.public_key.n_squared
        encoded = scalar % n
        g_to_k = (1 + encoded * n) % n_sq
        return PaillierCiphertext((self.value * g_to_k) % n_sq, self.public_key)

    def multiply_plaintext(self, scalar: int) -> "PaillierCiphertext":
        """Homomorphically multiply the plaintext by an integer scalar."""
        n = self.public_key.n
        n_sq = self.public_key.n_squared
        encoded = scalar % n
        return PaillierCiphertext(powmod(self.value, encoded, n_sq), self.public_key)

    def __add__(self, other):
        if isinstance(other, PaillierCiphertext):
            return self.add_ciphertext(other)
        if isinstance(other, int):
            return self.add_plaintext(other)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return self.multiply_plaintext(other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "PaillierCiphertext":
        return self.multiply_plaintext(-1)

    def __sub__(self, other):
        if isinstance(other, PaillierCiphertext):
            return self.add_ciphertext(-other)
        if isinstance(other, int):
            return self.add_plaintext(-other)
        return NotImplemented

    # -- serialization ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the ciphertext to a fixed-width big-endian byte string."""
        return self.value.to_bytes(self.public_key.ciphertext_byte_length(), "big")

    @classmethod
    def from_bytes(cls, data: bytes, public_key: PaillierPublicKey) -> "PaillierCiphertext":
        """Deserialize a ciphertext produced by :meth:`to_bytes`."""
        if len(data) != public_key.ciphertext_byte_length():
            raise PaillierError(
                f"ciphertext has {len(data)} bytes, expected "
                f"{public_key.ciphertext_byte_length()}"
            )
        value = int.from_bytes(data, "big")
        if not (0 < value < public_key.n_squared):
            raise PaillierError("deserialized ciphertext outside Z_{n^2}")
        return cls(value=value, public_key=public_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PaillierCiphertext(bits={self.value.bit_length()}, key={self.public_key.key_size})"


def generate_keypair(key_size: int = 1024, rng: Optional[random.Random] = None) -> PaillierKeyPair:
    """Generate a Paillier key pair.

    Args:
        key_size: bit length of the modulus ``n`` (the paper evaluates 512,
            1024 and 2048; tests use smaller sizes for speed).
        rng: optional random source for reproducible key generation.

    Returns:
        a :class:`PaillierKeyPair`.
    """
    if key_size < 64:
        raise PaillierError(f"key size must be >= 64 bits, got {key_size}")
    rng = rng or random.SystemRandom()
    half = key_size // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(key_size - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != key_size:
            continue
        if math.gcd(n, (p - 1) * (q - 1)) != 1:
            continue
        public = PaillierPublicKey(n=n, key_size=key_size)
        private = PaillierPrivateKey(public_key=public, p=p, q=q)
        return PaillierKeyPair(public_key=public, private_key=private)


def homomorphic_sum(
    ciphertexts: Iterable[PaillierCiphertext],
    public_key: PaillierPublicKey,
    chunk_size: int = _SUM_CHUNK,
) -> PaillierCiphertext:
    """Homomorphically sum an iterable of ciphertexts under ``public_key``.

    Ciphertext values are multiplied in chunks of ``chunk_size`` with a
    single deferred modular reduction per chunk, which beats reducing after
    every factor for the aggregate sizes the protocols produce.

    Returns an encryption of zero when the iterable is empty.
    """
    n_sq = public_key.n_squared
    acc: Optional[int] = None
    partial = 1
    pending = 0
    for ct in ciphertexts:
        if ct.public_key != public_key:
            raise PaillierError("cannot combine ciphertexts under different keys")
        partial *= ct.value
        pending += 1
        if pending >= chunk_size:
            acc = partial % n_sq if acc is None else (acc * partial) % n_sq
            partial = 1
            pending = 0
    if pending:
        acc = partial % n_sq if acc is None else (acc * partial) % n_sq
    if acc is None:
        return public_key.encrypt(0)
    return PaillierCiphertext(value=acc, public_key=public_key)
