"""Batched 1-out-of-2 oblivious transfer (Naor--Pinkas).

Yao's garbled-circuit protocol requires the evaluator to obtain the wire
label corresponding to each of its own input bits without revealing those
bits to the garbler, and without learning the label for the opposite bit;
the IKNP extension of :mod:`repro.crypto.otext` needs ``kappa`` such
transfers as its base OTs.  This module implements the batched Naor--Pinkas
oblivious transfer (SODA 2001) over a prime-order Diffie--Hellman subgroup
(safe prime ``p = 2q + 1``), secure against semi-honest adversaries —
exactly the threat model the PEM paper assumes.

Protocol sketch (sender holds ``n`` pairs ``(m_i^0, m_i^1)``; receiver holds
choice bits ``b_i``).  Three messages per batch; a single OT is a batch of
one:

1. Sender picks ``C = g^z`` and forgets ``z``, so no party knows
   ``log_g(C)``, and one ephemeral exponent ``r``; it sends ``(C, g^r)``
   once for the whole batch (:class:`OTSenderSetup`).
2. Receiver picks a secret ``k_i`` per transfer and sends one key
   ``PK_i^0`` per transfer: ``g^{k_i}`` for choice 0, ``C / g^{k_i}`` for
   choice 1 (:class:`OTReceiverChoice`).  The other key is implicitly
   ``PK_i^1 = C / PK_i^0``.
3. Sender masks ``e_i^b = H(PK_i^b ^ r, i, b) XOR m_i^b`` for both ``b``
   (:class:`OTCiphertexts`), computing ``PK_i^1 ^ r`` as
   ``C^r / PK_i^0 ^ r``: one exponentiation per transfer.
4. Receiver unmasks ``e_i^{b_i}`` with ``(g^r)^{k_i} = PK_i^{b_i} ^ r``.

Why sharing ``C`` and ``r`` is safe: the receiver knows the discrete log of
at most one of ``PK_i^0``, ``PK_i^1`` (their product is ``C``), so under
CDH it cannot compute ``PK_i^{1 - b_i} ^ r`` from ``g^r``, and with ``H`` a
random oracle (SHA-256) the unchosen pad is uniform to it.  Each pad hashes
the transfer's index ``i`` and the bit ``b``, so the pads of different
transfers are independent oracle outputs although they share one ``r``:
equal keys in two transfers still give unrelated pads.

Cost: 3 exponentiations per transfer (receiver ``g^{k_i}`` and
``(g^r)^{k_i}``, sender ``PK_i^0 ^ r``) plus 3 per batch (``C``, ``g^r``,
``C^r``).  On the wire: ``2 |elem|`` from the sender once, then ``|elem|``
from the receiver and ``2 |m|`` from the sender per transfer
(:func:`batch_wire_bytes`).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .bigint import powmod
from .primes import is_probable_prime

__all__ = [
    "OTGroup",
    "OTSender",
    "OTReceiver",
    "OTSenderSetup",
    "OTReceiverChoice",
    "OTCiphertexts",
    "batch_wire_bytes",
    "run_oblivious_transfer",
]


class OTError(Exception):
    """Raised on malformed oblivious-transfer messages."""


# A fixed 512-bit safe-prime group used by default so that unit tests and the
# PEM protocols do not pay safe-prime generation cost on every comparison.
# (Generated once as a 512-bit safe prime; primality is checked on first use.)
_DEFAULT_P = int(
    "0xfb24ffe35ec891c4f28df4a929fcbb232d8a5b47afa66a507b2077d9c1c9a8af"
    "5edcf65d5b1f18a811162f86d89304d1a4d943f512717cea423bf0bad1af6f97",
    16,
)


def _find_default_group() -> Tuple[int, int, int]:
    """Return (p, q, g) for the default OT group.

    The hard-coded constant above is validated: a modulus that is not a
    safe prime (e.g. because of transcription) raises rather than running
    the transfers in a group without a prime-order subgroup.
    """
    p = _DEFAULT_P
    q = (p - 1) // 2
    if not (is_probable_prime(p) and is_probable_prime(q)):
        raise RuntimeError("the default OT modulus is not a safe prime")
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

    @property
    def element_len(self) -> int:
        """Bytes of one encoded group element (fixed width)."""
        return (self.p.bit_length() + 7) // 8

    def random_exponent(self, rng: random.Random) -> int:
        return rng.randrange(1, self.q)

    def element_bytes(self, element: int) -> bytes:
        return element.to_bytes(self.element_len, "big")


def _hash_to_pad(group: OTGroup, element: int, index: int, bit: int, length: int) -> bytes:
    """The pad ``H(element, index, bit)`` of ``length`` bytes (random oracle)."""
    seed = group.element_bytes(element) + index.to_bytes(4, "big") + bytes((bit,))
    digest = b""
    counter = 0
    while len(digest) < length:
        digest += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return digest[:length]


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def batch_wire_bytes(
    count: int, message_len: int, group: Optional[OTGroup] = None
) -> Tuple[int, int]:
    """``(sender bytes, receiver bytes)`` of a ``count``-transfer batch.

    The sender sends ``C`` and ``g^r`` once and two masked messages per
    transfer; the receiver one key per transfer.  Equal, side by side, to
    the encoded sizes of the batch's three messages.
    """
    element_len = (group or OTGroup.default()).element_len
    return 2 * element_len + 2 * count * message_len, count * element_len


@dataclass(frozen=True)
class OTSenderSetup:
    """First sender message, once per batch: the group, ``C`` and ``g^r``."""

    group: OTGroup
    c: int
    ephemeral: int

    def encode(self) -> bytes:
        return self.group.element_bytes(self.c) + self.group.element_bytes(self.ephemeral)


@dataclass(frozen=True)
class OTReceiverChoice:
    """Receiver message: the key ``PK_i^0`` of every transfer."""

    pks_for_zero: Tuple[int, ...]

    def encode(self, group: OTGroup) -> bytes:
        return b"".join(group.element_bytes(pk) for pk in self.pks_for_zero)


@dataclass(frozen=True)
class OTCiphertexts:
    """Second sender message: both masked messages of every transfer."""

    pairs: Tuple[Tuple[bytes, bytes], ...]

    def encode(self) -> bytes:
        return b"".join(e0 + e1 for e0, e1 in self.pairs)


class OTSender:
    """The sender side of a batch of 1-out-of-2 OTs (holds every ``(m0, m1)``)."""

    def __init__(
        self,
        message_pairs: Sequence[Tuple[bytes, bytes]],
        group: Optional[OTGroup] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not message_pairs:
            raise OTError("an OT batch needs at least one message pair")
        for index, (m0, m1) in enumerate(message_pairs):
            if len(m0) != len(m1):
                raise OTError(f"both OT messages must have the same length (transfer {index})")
        self._pairs = tuple(message_pairs)
        self._group = group or OTGroup.default()
        self._rng = rng or random.SystemRandom()
        self._setup: Optional[OTSenderSetup] = None
        self._r = 0

    def setup(self) -> OTSenderSetup:
        """Produce the first message: ``C`` (unknown discrete log) and ``g^r``."""
        group = self._group
        # C = g^z for random z; the sender immediately forgets z, so neither
        # party knows log_g(C).
        c = powmod(group.g, group.random_exponent(self._rng), group.p)
        self._r = group.random_exponent(self._rng)
        self._setup = OTSenderSetup(
            group=group, c=c, ephemeral=powmod(group.g, self._r, group.p)
        )
        return self._setup

    def respond(self, choice: OTReceiverChoice) -> OTCiphertexts:
        """Mask both messages of every transfer under its two implicit keys."""
        if self._setup is None:
            raise OTError("setup() must be called before respond()")
        if len(choice.pks_for_zero) != len(self._pairs):
            raise OTError(
                f"batch holds {len(self._pairs)} transfers, got {len(choice.pks_for_zero)} keys"
            )
        group, c, p = self._group, self._setup.c, self._group.p
        c_to_r = powmod(c, self._r, p)
        pairs = []
        for index, ((m0, m1), key) in enumerate(zip(self._pairs, choice.pks_for_zero)):
            pk0 = key % p
            if pk0 <= 1 or pk0 == c:  # PK_0 = C would make PK_1 = 1
                raise OTError(f"receiver public key is degenerate (transfer {index})")
            shared0 = powmod(pk0, self._r, p)
            shared1 = (c_to_r * pow(shared0, -1, p)) % p
            pairs.append(
                (
                    _xor_bytes(m0, _hash_to_pad(group, shared0, index, 0, len(m0))),
                    _xor_bytes(m1, _hash_to_pad(group, shared1, index, 1, len(m1))),
                )
            )
        return OTCiphertexts(pairs=tuple(pairs))


class OTReceiver:
    """The receiver side of a batch of 1-out-of-2 OTs (holds every choice bit)."""

    def __init__(self, choice_bits: Sequence[int], rng: Optional[random.Random] = None) -> None:
        if not choice_bits:
            raise OTError("an OT batch needs at least one choice bit")
        for bit in choice_bits:
            if bit not in (0, 1):
                raise OTError(f"choice bit must be 0 or 1, got {bit}")
        self._choices = tuple(choice_bits)
        self._rng = rng or random.SystemRandom()
        self._secrets: Tuple[int, ...] = ()
        self._setup: Optional[OTSenderSetup] = None

    def choose(self, setup: OTSenderSetup) -> OTReceiverChoice:
        """Produce the keys message given the sender's setup."""
        group = setup.group
        self._setup = setup
        self._secrets = tuple(group.random_exponent(self._rng) for _ in self._choices)
        keys = []
        for choice, secret in zip(self._choices, self._secrets):
            my_pk = powmod(group.g, secret, group.p)
            keys.append(my_pk if choice == 0 else (setup.c * pow(my_pk, -1, group.p)) % group.p)
        return OTReceiverChoice(pks_for_zero=tuple(keys))

    def recover(self, ciphertexts: OTCiphertexts) -> List[bytes]:
        """Unmask the ciphertext each choice bit selects."""
        if self._setup is None:
            raise OTError("choose() must be called before recover()")
        if len(ciphertexts.pairs) != len(self._choices):
            raise OTError(
                f"batch holds {len(self._choices)} transfers, got {len(ciphertexts.pairs)} pairs"
            )
        group, ephemeral = self._setup.group, self._setup.ephemeral
        recovered = []
        for index, (choice, secret, pair) in enumerate(
            zip(self._choices, self._secrets, ciphertexts.pairs)
        ):
            shared = powmod(ephemeral, secret, group.p)
            chosen = pair[choice]
            recovered.append(
                _xor_bytes(chosen, _hash_to_pad(group, shared, index, choice, len(chosen)))
            )
        return recovered


def run_oblivious_transfer(
    messages: Sequence[Tuple[bytes, bytes]],
    choice_bits: Sequence[int],
    rng: Optional[random.Random] = None,
    group: Optional[OTGroup] = None,
) -> Tuple[List[bytes], int, int]:
    """Run one batch of 1-out-of-2 OTs in-process.

    Used by the inline Yao protocol to transfer the evaluator's input wire
    labels, and by :func:`repro.crypto.otext.establish_correlation` for the
    extension's base OTs.

    Args:
        messages: one ``(m0, m1)`` pair per transfer.
        choice_bits: the receiver's choice bit per transfer.
        rng: optional shared random source (for deterministic tests).
        group: optional DH group (defaults to the cached 512-bit group).

    Returns:
        ``(recovered, sender_bytes, receiver_bytes)``: the chosen messages
        and the encoded sizes of the messages each side sent.
    """
    if len(messages) != len(choice_bits):
        raise OTError("need exactly one choice bit per message pair")
    sender = OTSender(messages, group=group, rng=rng)
    receiver = OTReceiver(choice_bits, rng=rng)
    setup = sender.setup()
    choice = receiver.choose(setup)
    ciphertexts = sender.respond(choice)
    recovered = receiver.recover(ciphertexts)
    sender_bytes = len(setup.encode()) + len(ciphertexts.encode())
    return recovered, sender_bytes, len(choice.encode(setup.group))
