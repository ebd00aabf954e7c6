"""Offline acceleration for Paillier: precomputed randomizer pools.

The cost of a Paillier encryption ``E(m, r) = (1 + m*n) * r^n mod n^2`` is
dominated by the obfuscator ``r^n mod n^2``, which does not depend on the
plaintext.  The paper's deployment exploits exactly this: "the encryption
and decryption are independently executed in parallel during idle time", so
the online critical path only pays a modular multiplication per ciphertext.

:class:`RandomizerPool` reproduces that offline/online split in-process:

* :meth:`RandomizerPool.warm` precomputes obfuscators during window setup
  (the *offline* phase, attributed separately by the cost model),
* :meth:`RandomizerPool.take` hands each obfuscator out **exactly once**
  (see the security caveat in :mod:`repro.crypto.paillier` — reusing an
  obfuscator links ciphertexts like reusing a one-time pad), and
* an exhausted pool transparently falls back to fresh online
  exponentiation, counting the fallbacks so callers can size their warm-up.

The one-shot invariant
----------------------

Every obfuscator value produced by this module is handed to an encryption
**at most once**, no matter which container it sits in.  Values move in one
direction only::

    reservation --claim--> reservoir --warm/refill--> pool --take--> ciphertext
                              ^                        |
                              +-------recycle----------+

``recycle`` moves *unused* pool entries back to the reservoir (e.g. between
trading windows); a value that has been returned by :meth:`take` is gone for
good.  Reusing an obfuscator for two ciphertexts would make the pair
linkable (their ratio reveals the plaintext difference), exactly like
reusing a one-time pad.

The reservoir and deterministic accounting
------------------------------------------

The *reservoir* holds precomputed obfuscator values that are not yet
accounted: entries recycled at a window boundary, and values a
:class:`repro.runtime.pipeline.WindowPipeline` pre-staged for the window
that just began (:meth:`reserve` / :meth:`claim_reservation`).
:meth:`warm`, :meth:`refill` and the drained-pool fallback all prefer
popping the reservoir over computing inline.

Crucially the reservoir only changes *where the wall-clock work happens*:
the simulated-cost accounting (``produced``, ``consumed``,
``fallback_count`` and the offline seconds charged from them) is a pure
function of the warm/take call sequence and is **independent of the
reservoir state**.  That is what keeps pipelined and sharded runs
bit-identical to serial ones although their reservoirs differ.

Owner-side sampling: half-exponent lifts
---------------------------------------

When the key owner's private key is available locally (it is for every
agent's own pool), an obfuscator costs two half-width pows with
``|n|/2``-bit exponents instead of one full-width pow with an ``|n|``-bit
one.  Modulo ``p^2`` the binomial theorem gives ``(s + kp)^p = s^p``, so
``r^n = (r^q)^p mod p^2`` depends only on ``t = (r mod p)^q mod p`` and
equals the *lift* ``t^p mod p^2`` (symmetrically ``(r^p mod q)^q mod
q^2``); Garner's formula recombines the two halves into ``r^n mod n^2``.

Every valid key has ``gcd(n, phi(n)) = 1`` (keygen enforces it, and the
private key's ``mu`` does not exist otherwise), hence ``gcd(q, p-1) = 1``
and ``s -> s^q mod p`` is a bijection of ``Z_p^*``.  A uniform ``r`` in
``Z_n^*`` therefore induces a uniform, independent pair ``(t_p, t_q)`` in
``Z_p^* x Z_q^*`` — so the pool draws that pair *directly* from the CSPRNG
(``u_p`` in ``[1, p)``, ``u_q`` in ``[1, q)``) and lifts it, skipping the
residue step: exactly the uniform distribution over the n-th residues of
``Z_{n^2}^*`` that drawing ``r`` and computing ``r^n`` yields, at half the
big-int work.  The r-addressed :func:`precompute_obfuscator` runs the
cheap residue step ``(r mod p)^(q mod (p-1)) mod p`` first and then the
same lift, so it stays bit-exact with ``pow(r, n, n^2)``.  A pool for a
foreign key (no factors) pays the public full-width pow.

Fixed-base exponentiation and the bigint seam
---------------------------------------------

* :func:`backend` / :func:`set_backend` / :func:`powmod` — re-exported from
  :mod:`repro.crypto.bigint`, the seam every modular exponentiation in this
  module (pool refills, the owner-side lifts, the foreign-key pow) goes
  through: when the library loads, libcrypto's constant-time Montgomery
  ladder, with each key's ``n²``, ``p²`` and ``q²`` kept resident so a
  lift converts only its base and exponent; builtin ``pow`` otherwise —
  same integers either way.
* :class:`FixedBaseTable` — Brickell–Gordon–McCurley–Wilson fixed-base
  comb: precomputing ``base^(d·2^(w·i))`` makes every later exponentiation
  of the same base squaring-free (~t/w mulmods for t-bit exponents).  It
  has no product call site: through the seam, one ``multiply_plaintext``
  per requester beats it (at a 1024-bit key, table build plus five
  lookups 4.4 ms against 0.57 ms), so only the multiexp bench row and the
  tracer's patch table name it.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional

from .bigint import backend, powmod, set_backend
from .paillier import (
    PaillierCiphertext,
    PaillierPrivateKey,
    PaillierPublicKey,
)

__all__ = [
    "RandomizerPool",
    "precompute_obfuscator",
    "FixedBaseTable",
    "backend",
    "set_backend",
    "powmod",
]


# -- fixed-base exponentiation ------------------------------------------------------------


class FixedBaseTable:
    """Precomputed fixed-base comb for repeated ``base^e mod m``.

    Stores ``base^(d * 2^(w*i))`` for every window position ``i`` and digit
    ``d``, so each :meth:`powmod` costs only ~``ceil(t/w)`` modular
    multiplications and **zero squarings** for ``t``-bit exponents — the
    BGMW trade: pay the squaring chain once at table build, amortize it over
    every exponentiation of the same base (Protocol 4's ratio phase raises
    one aggregate ciphertext to one multiplier per requester).

    Args:
        base: the fixed base.
        modulus: positive modulus.
        max_exponent_bits: largest exponent bit length the table covers.
        window_bits: comb window width ``w`` (table has
            ``ceil(max_exponent_bits/w) * (2^w - 1)`` useful entries).
    """

    __slots__ = ("base", "modulus", "window_bits", "max_exponent_bits", "_tables")

    def __init__(
        self, base: int, modulus: int, max_exponent_bits: int, window_bits: int = 4
    ) -> None:
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        if max_exponent_bits < 1:
            raise ValueError("max_exponent_bits must be >= 1")
        if window_bits < 1:
            raise ValueError("window_bits must be >= 1")
        self.base = base % modulus
        self.modulus = modulus
        self.window_bits = window_bits
        self.max_exponent_bits = max_exponent_bits
        size = 1 << window_bits
        windows = (max_exponent_bits + window_bits - 1) // window_bits
        tables: List[List[int]] = []
        g = self.base
        for _ in range(windows):
            row = [1 % modulus] * size
            for digit in range(1, size):
                row[digit] = row[digit - 1] * g % modulus
            tables.append(row)
            # Advance g to base^(2^(w*(i+1))) for the next window position.
            g = row[size - 1] * g % modulus
        self._tables = tables

    def powmod(self, exponent: int) -> int:
        """``base^exponent mod modulus`` using only table lookups + mulmods."""
        if exponent < 0:
            raise ValueError("fixed-base table exponents must be non-negative")
        if exponent.bit_length() > self.max_exponent_bits:
            raise ValueError(
                f"exponent has {exponent.bit_length()} bits, table covers "
                f"{self.max_exponent_bits}"
            )
        modulus = self.modulus
        mask = (1 << self.window_bits) - 1
        result = 1 % modulus
        position = 0
        while exponent:
            digit = exponent & mask
            if digit:
                result = result * self._tables[position][digit] % modulus
            exponent >>= self.window_bits
            position += 1
        return result


class _OwnerObfuscatorSampler:
    """Owner-side obfuscators as half-exponent lifts mod ``p^2`` / ``q^2``.

    The identity, its ``gcd(n, phi(n)) = 1`` precondition (guaranteed by any
    constructed private key) and the distribution argument are in the
    module docstring.
    """

    __slots__ = ("p", "q", "p_sq", "q_sq", "q_sq_inv")

    def __init__(self, private_key: PaillierPrivateKey) -> None:
        self.p = private_key.p
        self.q = private_key.q
        self.p_sq = private_key.p_squared
        self.q_sq = private_key.q_squared
        self.q_sq_inv = pow(self.q_sq % self.p_sq, -1, self.p_sq)

    def _lift(self, t_p: int, t_q: int) -> int:
        """Garner-combine ``t_p^p mod p^2`` with ``t_q^q mod q^2``."""
        x_p = powmod(t_p, self.p, self.p_sq)
        x_q = powmod(t_q, self.q, self.q_sq)
        return x_q + self.q_sq * ((x_p - x_q) * self.q_sq_inv % self.p_sq)

    def sample(self, rng: random.Random) -> int:
        """A uniform n-th residue of ``Z_{n^2}^*`` from two half-width draws."""
        return self._lift(rng.randrange(1, self.p), rng.randrange(1, self.q))

    def obfuscate(self, r: int) -> int:
        """Exactly ``r^n mod n^2``: the residue step, then the same lift."""
        p, q = self.p, self.q
        return self._lift(
            powmod(r % p, q % (p - 1), p),
            powmod(r % q, p % (q - 1), q),
        )


def precompute_obfuscator(
    public_key: PaillierPublicKey,
    r: int,
    private_key: Optional[PaillierPrivateKey] = None,
) -> int:
    """Compute the obfuscator ``r^n mod n^2`` for one randomizer ``r``.

    With the private key available the computation is two cheap residue
    pows modulo ``p`` and ``q`` followed by the half-exponent lifts modulo
    ``p^2`` and ``q^2`` (bit-exact with the public formula); otherwise it
    falls back to the public full-width exponentiation.
    """
    if private_key is None:
        return powmod(r, public_key.n, public_key.n_squared)
    if private_key.public_key != public_key:
        raise ValueError("private key does not match the public key")
    return _OwnerObfuscatorSampler(private_key).obfuscate(r)


class RandomizerPool:
    """A one-shot pool of precomputed Paillier obfuscators for one key.

    The pool is the *accounted* container: ``warm``/``refill`` model the
    offline precomputation a window performs and ``take`` models the online
    hand-out.  Behind it sits an unaccounted *reservoir* of recycled and
    pre-staged values; whenever the pool needs a fresh value it pops the
    reservoir first and only computes inline on a miss.  ``produced``,
    ``consumed`` and ``fallback_count`` never depend on the reservoir
    state — see the module docstring for why that invariant matters.

    Args:
        public_key: the key the obfuscators are computed for.
        rng: random source for the randomizers (defaults to the system
            CSPRNG).
        private_key: when the key owner's private key is local, obfuscators
            are sampled as half-exponent lifts modulo ``p^2`` and ``q^2``
            (same distribution, about half the big-int work).

    Attributes:
        produced: total obfuscators ever precomputed via ``warm``/``refill``
            (the work charged to the offline clock).
        consumed: total obfuscators handed out (pooled or fallback).
        fallback_count: how many :meth:`take` calls found the pool empty
            and had to run the online exponentiation instead.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        rng: Optional[random.Random] = None,
        private_key: Optional[PaillierPrivateKey] = None,
    ) -> None:
        if private_key is not None and private_key.public_key != public_key:
            raise ValueError("private key does not match the pool's public key")
        self.public_key = public_key
        self._rng = rng or random.SystemRandom()
        self._pool: Deque[int] = deque()
        #: recycled and claimed obfuscator values, not yet accounted.
        self._reservoir: Deque[int] = deque()
        #: window-tagged pre-staged obfuscators (pipelined runs): values a
        #: pipeline stage computed *for a specific future window* when an
        #: earlier window began.  They only enter the one-shot flow when
        #: that window claims them (:meth:`claim_reservation`), so a
        #: retried earlier window can never consume material staged for a
        #: later one.
        self._reservations: Dict[int, List[int]] = {}
        #: staging draws from the system CSPRNG, never from ``rng``, so a
        #: pipelined run leaves a seeded ``rng``'s sequence untouched.
        self._stage_rng = random.SystemRandom()
        # Owner-side sampler (constants cached across refills); ``None``
        # for a foreign key, which pays the public full-width pow.
        self._owner: Optional[_OwnerObfuscatorSampler] = (
            None if private_key is None else _OwnerObfuscatorSampler(private_key)
        )
        self.produced = 0
        self.consumed = 0
        self.fallback_count = 0
        #: total obfuscators ever pre-staged via :meth:`reserve` (window
        #: pipelining) — unaccounted wall-clock work.
        self.reserved = 0

    def __len__(self) -> int:
        return len(self._pool)

    @property
    def available(self) -> int:
        """Number of precomputed obfuscators currently in the pool."""
        return len(self._pool)

    @property
    def reservoir_available(self) -> int:
        """Number of unaccounted values waiting in the reservoir."""
        return len(self._reservoir)

    def _sample(self, rng: random.Random) -> int:
        """One fresh obfuscator drawn from ``rng`` — every producer's source."""
        if self._owner is not None:
            return self._owner.sample(rng)
        n = self.public_key.n
        return powmod(rng.randrange(1, n), n, self.public_key.n_squared)

    def _next_value(self) -> int:
        """A never-used obfuscator: reservoir pop, or inline computation."""
        if self._reservoir:
            return self._reservoir.popleft()
        return self._sample(self._rng)

    # -- pipeline staging (unaccounted) ----------------------------------------

    def reserve(self, window: int, count: int) -> int:
        """Pre-stage ``count`` obfuscators *for* ``window`` (pipeline stage).

        Unaccounted wall-clock work drawn from the system CSPRNG; the
        values are tagged to ``window`` instead of entering the shared
        reservoir.  They become takeable only once that window claims them
        (:meth:`claim_reservation`), which is what keeps a supervisor
        retry of window W from consuming material staged for window W+1.
        Returns the number of values staged.
        """
        if count <= 0:
            return 0
        values = [self._sample(self._stage_rng) for _ in range(count)]
        self._reservations.setdefault(window, []).extend(values)
        self.reserved += count
        return count

    def reservation_available(self, window: int) -> int:
        """Pre-staged values currently tagged to ``window``."""
        return len(self._reservations.get(window, ()))

    def claim_reservation(self, window: int) -> int:
        """Release ``window``'s pre-staged values into the reservoir.

        Called when ``window`` actually begins: its tagged values join the
        one-shot ``reservoir -> pool -> take`` flow, so the window's
        ``warm`` pops them instead of exponentiating inline.  Claiming is
        idempotent per window (a second claim finds nothing) and the
        values stay handed out at most once.  Returns the number claimed.
        """
        values = self._reservations.pop(window, None)
        if not values:
            return 0
        self._reservoir.extend(values)
        return len(values)

    def recycle(self) -> int:
        """Move unused pool entries back to the reservoir.

        Called between trading windows so each window's offline accounting
        starts from a deterministic empty pool while the already-computed
        values (still never handed out) are not wasted.  Returns the number
        of entries recycled.
        """
        moved = len(self._pool)
        self._reservoir.extend(self._pool)
        self._pool.clear()
        return moved

    def force_drain(self) -> int:
        """Discard every pooled obfuscator (chaos hook, resource exhaustion).

        Unlike :meth:`recycle`, the values are *lost* — a mid-window
        failure of the precompute store, not a window boundary.  Later
        :meth:`take` calls pay the online exponentiation and are counted
        in :attr:`fallback_count`, which is what makes the injected
        exhaustion detectable.  Reservoir and accounting are untouched.
        Returns the number of obfuscators discarded.
        """
        discarded = len(self._pool)
        self._pool.clear()
        return discarded

    # -- offline phase ---------------------------------------------------------

    def refill(self, count: int) -> int:
        """Precompute ``count`` additional obfuscators (offline work)."""
        if count <= 0:
            return 0
        for _ in range(count):
            self._pool.append(self._next_value())
        self.produced += count
        return count

    def warm(self, target: int) -> int:
        """Top the pool up to ``target`` available entries.

        Returns the number of obfuscators actually precomputed, so callers
        can charge the offline cost model for exactly that work.
        """
        deficit = target - len(self._pool)
        if deficit <= 0:
            return 0
        return self.refill(deficit)

    # -- online phase ----------------------------------------------------------

    def take(self) -> int:
        """Return a never-used obfuscator, preferring the precomputed pool.

        Falls back to a fresh online exponentiation when the pool is
        drained (counted in :attr:`fallback_count`); either way the value
        is handed out exactly once.
        """
        self.consumed += 1
        if self._pool:
            return self._pool.popleft()
        self.fallback_count += 1
        return self._next_value()

    def take_many(self, count: int) -> List[int]:
        """Return ``count`` never-used obfuscators."""
        return [self.take() for _ in range(count)]

    def encrypt(self, plaintext: int) -> PaillierCiphertext:
        """Encrypt using one pooled obfuscator (single online mulmod)."""
        return self.public_key.raw_encrypt(plaintext, self.take())
