"""1-out-of-2 oblivious transfer (Bellare--Micali style).

Yao's garbled-circuit protocol requires the evaluator to obtain the wire
label corresponding to each of its own input bits without revealing those
bits to the garbler, and without learning the label for the opposite bit.
This module implements the classic Bellare--Micali oblivious transfer over a
prime-order Diffie--Hellman subgroup (safe prime ``p = 2q + 1``), which is
secure against semi-honest adversaries — exactly the threat model the PEM
paper assumes.

Protocol sketch (sender holds messages m0, m1; receiver holds choice bit b):

1. Sender publishes a random group element ``C`` whose discrete log it does
   not know.
2. Receiver picks secret ``x`` and sends ``PK_b = g^x``; the "other" public
   key is implicitly ``PK_{1-b} = C / PK_b``.
3. Sender ElGamal-encrypts ``m0`` under ``PK_0`` and ``m1`` under ``PK_1``.
4. Receiver can decrypt only the ciphertext for its choice bit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .bigint import powmod
from .primes import generate_safe_prime, is_probable_prime

__all__ = [
    "OTGroup",
    "OTSender",
    "OTReceiver",
    "OTSenderSetup",
    "OTReceiverChoice",
    "OTCiphertextPair",
    "run_oblivious_transfer",
]


class OTError(Exception):
    """Raised on malformed oblivious-transfer messages."""


# A fixed 512-bit safe-prime group used by default so that unit tests and the
# PEM protocols do not pay safe-prime generation cost on every comparison.
# (Generated once with generate_safe_prime(512); primality is asserted below.)
_DEFAULT_P = int(
    "0xfb24ffe35ec891c4f28df4a929fcbb232d8a5b47afa66a507b2077d9c1c9a8af"
    "5edcf65d5b1f18a811162f86d89304d1a4d943f512717cea423bf0bad1af6f97",
    16,
)


def _find_default_group() -> Tuple[int, int, int]:
    """Return (p, q, g) for the default OT group.

    The hard-coded constant above is validated; if it is not a safe prime
    (e.g. because of transcription), a fresh 256-bit safe prime is generated
    as a fallback so the module always works.
    """
    p = _DEFAULT_P
    q = (p - 1) // 2
    if not (is_probable_prime(p) and is_probable_prime(q)):
        # staticcheck: ignore[csprng-default] -- group parameters (p, q, g)
        # are public protocol constants, not secret material: every party
        # must derive the *same* fallback group, so the draw is seeded.
        rng = random.Random(0xC0FFEE)
        p = generate_safe_prime(256, rng)
        q = (p - 1) // 2
    # 4 = 2^2 is always a quadratic residue, hence a generator of the order-q subgroup.
    g = 4
    return p, q, g


_DEFAULT_GROUP_CACHE: Optional[Tuple[int, int, int]] = None


@dataclass(frozen=True)
class OTGroup:
    """A prime-order subgroup of Z_p^* used for the OT public keys.

    Attributes:
        p: safe prime modulus.
        q: subgroup order, ``(p - 1) / 2``.
        g: generator of the order-``q`` subgroup.
    """

    p: int
    q: int
    g: int

    @classmethod
    def default(cls) -> "OTGroup":
        """Return the cached default group (512-bit safe prime)."""
        global _DEFAULT_GROUP_CACHE
        if _DEFAULT_GROUP_CACHE is None:
            _DEFAULT_GROUP_CACHE = _find_default_group()
        p, q, g = _DEFAULT_GROUP_CACHE
        return cls(p=p, q=q, g=g)

    @classmethod
    def generate(cls, bits: int = 256, rng: Optional[random.Random] = None) -> "OTGroup":
        """Generate a fresh group with a ``bits``-bit safe prime."""
        p = generate_safe_prime(bits, rng)
        return cls(p=p, q=(p - 1) // 2, g=4)

    def random_exponent(self, rng: random.Random) -> int:
        return rng.randrange(1, self.q)

    def element_bytes(self, element: int) -> bytes:
        return element.to_bytes((self.p.bit_length() + 7) // 8, "big")


def _hash_to_pad(group: OTGroup, element: int, index: int, length: int) -> bytes:
    """Derive a one-time pad of ``length`` bytes from a group element."""
    digest = b""
    counter = 0
    seed = group.element_bytes(element) + index.to_bytes(1, "big")
    while len(digest) < length:
        digest += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return digest[:length]


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@dataclass(frozen=True)
class OTSenderSetup:
    """First sender message: the group and the random element ``C``."""

    group: OTGroup
    c: int


@dataclass(frozen=True)
class OTReceiverChoice:
    """Receiver message: the public key for its (hidden) choice bit."""

    pk_for_zero: int


@dataclass(frozen=True)
class OTCiphertextPair:
    """Second sender message: ElGamal-style encryptions of both messages."""

    ephemeral_zero: int
    ciphertext_zero: bytes
    ephemeral_one: int
    ciphertext_one: bytes


class OTSender:
    """The sender side of a single 1-out-of-2 OT (holds ``m0`` and ``m1``)."""

    def __init__(
        self,
        message_zero: bytes,
        message_one: bytes,
        group: Optional[OTGroup] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if len(message_zero) != len(message_one):
            raise OTError("both OT messages must have the same length")
        self._messages = (message_zero, message_one)
        self._group = group or OTGroup.default()
        self._rng = rng or random.SystemRandom()
        self._c: Optional[int] = None

    def setup(self) -> OTSenderSetup:
        """Produce the first message (random element with unknown discrete log)."""
        # C = g^z for random z; the sender immediately forgets z, so neither
        # party knows log_g(C) — the standard Bellare–Micali trick.
        z = self._group.random_exponent(self._rng)
        self._c = powmod(self._group.g, z, self._group.p)
        return OTSenderSetup(group=self._group, c=self._c)

    def respond(self, choice: OTReceiverChoice) -> OTCiphertextPair:
        """Encrypt both messages against the receiver's two implicit keys."""
        if self._c is None:
            raise OTError("setup() must be called before respond()")
        group = self._group
        pk0 = choice.pk_for_zero % group.p
        if pk0 <= 1:
            raise OTError("receiver public key is degenerate")
        pk1 = (self._c * pow(pk0, -1, group.p)) % group.p

        r0 = group.random_exponent(self._rng)
        r1 = group.random_exponent(self._rng)
        eph0 = powmod(group.g, r0, group.p)
        eph1 = powmod(group.g, r1, group.p)
        pad0 = _hash_to_pad(group, powmod(pk0, r0, group.p), 0, len(self._messages[0]))
        pad1 = _hash_to_pad(group, powmod(pk1, r1, group.p), 1, len(self._messages[1]))
        return OTCiphertextPair(
            ephemeral_zero=eph0,
            ciphertext_zero=_xor_bytes(self._messages[0], pad0),
            ephemeral_one=eph1,
            ciphertext_one=_xor_bytes(self._messages[1], pad1),
        )


class OTReceiver:
    """The receiver side of a single 1-out-of-2 OT (holds the choice bit)."""

    def __init__(self, choice_bit: int, rng: Optional[random.Random] = None) -> None:
        if choice_bit not in (0, 1):
            raise OTError(f"choice bit must be 0 or 1, got {choice_bit}")
        self._choice = choice_bit
        self._rng = rng or random.SystemRandom()
        self._secret: Optional[int] = None
        self._group: Optional[OTGroup] = None

    def choose(self, setup: OTSenderSetup) -> OTReceiverChoice:
        """Produce the public key message given the sender's setup."""
        group = setup.group
        self._group = group
        self._secret = group.random_exponent(self._rng)
        my_pk = powmod(group.g, self._secret, group.p)
        if self._choice == 0:
            pk_for_zero = my_pk
        else:
            pk_for_zero = (setup.c * pow(my_pk, -1, group.p)) % group.p
        return OTReceiverChoice(pk_for_zero=pk_for_zero)

    def recover(self, pair: OTCiphertextPair) -> bytes:
        """Decrypt the ciphertext corresponding to the choice bit."""
        if self._secret is None or self._group is None:
            raise OTError("choose() must be called before recover()")
        group = self._group
        if self._choice == 0:
            shared = powmod(pair.ephemeral_zero, self._secret, group.p)
            pad = _hash_to_pad(group, shared, 0, len(pair.ciphertext_zero))
            return _xor_bytes(pair.ciphertext_zero, pad)
        shared = powmod(pair.ephemeral_one, self._secret, group.p)
        pad = _hash_to_pad(group, shared, 1, len(pair.ciphertext_one))
        return _xor_bytes(pair.ciphertext_one, pad)


def run_oblivious_transfer(
    messages: Sequence[Tuple[bytes, bytes]],
    choice_bits: Sequence[int],
    rng: Optional[random.Random] = None,
    group: Optional[OTGroup] = None,
) -> Tuple[list[bytes], int]:
    """Run a batch of independent 1-out-of-2 OTs in-process.

    Used by :mod:`repro.crypto.secure_comparison` to transfer the evaluator's
    input wire labels.  Returns the recovered messages together with the
    total number of bytes exchanged (for bandwidth accounting).

    Args:
        messages: one ``(m0, m1)`` pair per transfer.
        choice_bits: the receiver's choice bit per transfer.
        rng: optional shared random source (for deterministic tests).
        group: optional DH group (defaults to the cached 512-bit group).

    Returns:
        ``(recovered, transferred_bytes)``.
    """
    if len(messages) != len(choice_bits):
        raise OTError("need exactly one choice bit per message pair")
    group = group or OTGroup.default()
    recovered: list[bytes] = []
    transferred = 0
    element_len = (group.p.bit_length() + 7) // 8
    for (m0, m1), bit in zip(messages, choice_bits):
        sender = OTSender(m0, m1, group=group, rng=rng)
        receiver = OTReceiver(bit, rng=rng)
        setup = sender.setup()
        choice = receiver.choose(setup)
        pair = sender.respond(choice)
        recovered.append(receiver.recover(pair))
        transferred += element_len * 3 + len(pair.ciphertext_zero) + len(pair.ciphertext_one)
    return recovered, transferred
