"""IKNP-style 1-out-of-2 oblivious-transfer extension.

The public-key OT of :mod:`repro.crypto.ot` costs modular
exponentiations per transferred wire label, which is why the garbled
comparison of Protocol 2 used to dominate the online critical path: a
``w``-bit comparison needs ``w`` OTs, i.e. ``O(w)`` public-key operations
*per comparison*.

OT extension (Ishai--Kilian--Nissim--Petrank, CRYPTO'03) collapses that to
a **constant number of public-key base OTs** — ``kappa``, the computational
security parameter — after which any number of transfers costs only
symmetric-key work (PRG expansion + hashing + XOR).  Combined with Beaver's
precomputation trick the *online* phase of each transfer is pure XOR:

1. **Base phase** (:func:`establish_correlation`, public-key, run during
   idle time): the extension *receiver* plays base-OT **sender** with
   ``kappa`` random seed pairs ``(k_i^0, k_i^1)``; the extension *sender*
   plays base-OT **receiver** with a secret choice vector ``s`` and learns
   ``k_i^{s_i}`` — all ``kappa`` transfers in one Naor--Pinkas batch
   (:mod:`repro.crypto.ot`).  This standing :class:`BaseOTCorrelation`
   can be extended arbitrarily often — that is the whole point of IKNP.
2. **Extension phase** (:func:`derive_batch`, symmetric, also off the
   critical path): for a batch of ``n`` transfers the receiver PRG-expands
   the seed pairs into an ``n x kappa`` bit matrix and sends the correction
   columns ``u_i = G(k_i^0) XOR G(k_i^1) XOR c`` (``c`` = its *random*
   choice bits); the sender reconstructs its rows ``q_j = t_j XOR (c_j &
   s)`` and both sides hash their rows into one-time pads.  The result is a
   batch of **random OTs**: receiver holds ``(c_j, H(t_j))``, sender holds
   ``(H(q_j), H(q_j XOR s))``.
3. **Online phase** (:meth:`PreparedOTBatch.transfer`): Beaver
   derandomization.  The receiver reveals ``d_j = b_j XOR c_j`` for its
   real choice bit ``b_j``; the sender replies with ``f_k = m_{k XOR d_j}
   XOR pad_k``; the receiver unmasks ``f_{c_j}``.  No public-key operation,
   no hashing beyond what was precomputed — just XOR and one round trip.

Security model: semi-honest, like every other protocol in this
reproduction.  Hash outputs are modeled as a random oracle (SHA-256), the
PRG is the same SHA-256 stream used elsewhere in the crypto package.

Matrix layout: each side's ``count x kappa`` bit matrix is held column-wise
as a ``kappa x ceil(count / 8)`` ``uint8`` array — row ``i`` is ``G(k_i)``, so
bit ``j`` of column ``i`` is bit ``j % 8`` of byte ``j // 8`` — and ``u`` and
``q`` are whole-array XORs.  One ``unpackbits`` / ``packbits`` pair per matrix
transposes it into ``count`` rows of ``ceil(kappa / 8)`` bytes, little-endian
bit order (bit ``i`` of row ``j`` is column ``i``), which are hashed into the
pads.  ``tests/crypto/gc_oracles.py`` keeps the bit-list original as the
oracle this layout must match byte for byte.

One-shot discipline: a :class:`PreparedOTBatch` masks each message pair
with pads that are used **exactly once** — :meth:`transfer` refuses to run
twice, mirroring the obfuscator one-shot invariant of
:mod:`repro.crypto.accel` (a reused pad would leak the XOR of two labels).
"""

from __future__ import annotations

import hashlib
import random
import secrets
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ot import OTGroup, batch_wire_bytes, run_oblivious_transfer

__all__ = [
    "DEFAULT_KAPPA",
    "OTExtensionError",
    "BaseOTCorrelation",
    "PreparedOTBatch",
    "establish_correlation",
    "session_wire_bytes",
    "derive_batch",
    "shared_correlation",
    "fresh_instance_tag",
]

#: Default computational security parameter (number of base OTs).
DEFAULT_KAPPA = 128

#: Length in bytes of the base-OT seeds that get extended.
SEED_BYTES = 16


class OTExtensionError(Exception):
    """Raised on misuse of the OT-extension machinery (reuse, mismatch)."""


#: The PRG's first block counter, serialized once.
_BLOCK_0 = (0).to_bytes(4, "big")

#: Bytes one SHA-256 block yields: a PRG stream this short is a single hash.
_BLOCK_BYTES = 32


def _prg(seed: bytes, tag: bytes, length: int) -> bytes:
    """SHA-256 based PRG stream: expand ``seed`` to ``length`` bytes."""
    prefix = seed + tag
    if length <= _BLOCK_BYTES:
        return hashlib.sha256(prefix + _BLOCK_0).digest()[:length]
    blocks = [
        hashlib.sha256(prefix + counter.to_bytes(4, "big")).digest()
        for counter in range((length + _BLOCK_BYTES - 1) // _BLOCK_BYTES)
    ]
    return b"".join(blocks)[:length]


def _hash_pad(prefix: bytes, row: bytes, length: int) -> bytes:
    """Random-oracle hash of one matrix row into a ``length``-byte pad.

    ``prefix`` is ``b"iknp-pad" + instance tag + row index``, built once per
    row by the caller and shared by the three pads hashed under it.
    """
    return _prg(hashlib.sha256(prefix + row).digest(), b"expand", length)


def _xor(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings as one big-int operation.

    Fails closed on a length mismatch: a short pad or message must never
    yield a silently truncated label.
    """
    if len(a) != len(b):
        raise OTExtensionError(f"cannot XOR {len(a)} bytes with {len(b)} bytes")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )


def _pack_bits(bits: Sequence[int]) -> int:
    """The int whose bit ``i`` is ``bits[i]`` (the matrix's bit layout)."""
    return int("".join(map(str, reversed(bits))), 2)


def _unpack_bits(value: int, count: int) -> Tuple[int, ...]:
    """The low ``count`` bits of ``value``, bit ``i`` first (inverse of :func:`_pack_bits`)."""
    return tuple(map(int, format(value & ((1 << count) - 1), f"0{count}b")[::-1]))


@dataclass(frozen=True)
class BaseOTCorrelation:
    """The standing IKNP correlation produced by the ``kappa`` base OTs.

    Attributes:
        kappa: number of base OTs / width of the bit matrix.
        sender_choice: the extension sender's secret vector ``s``.
        sender_seeds: the seeds ``k_i^{s_i}`` the sender obtained.
        receiver_seed_pairs: the receiver's seed pairs ``(k_i^0, k_i^1)``.
        base_ot_bytes: bytes the base OTs put on the wire, both sides
            (group elements and masked seeds — the *offline* session cost).
    """

    kappa: int
    sender_choice: Tuple[int, ...]
    sender_seeds: Tuple[bytes, ...]
    receiver_seed_pairs: Tuple[Tuple[bytes, bytes], ...]
    base_ot_bytes: int


def establish_correlation(
    kappa: int = DEFAULT_KAPPA,
    group: Optional[OTGroup] = None,
    rng: Optional[random.Random] = None,
) -> BaseOTCorrelation:
    """Run the ``kappa`` public-key base OTs and return the correlation.

    This is the only public-key step of the extension; everything derived
    from the returned correlation is symmetric-key work.

    Args:
        kappa: security parameter (number of base OTs).
        group: DH group for the base OTs (default: the cached 512-bit one).
        rng: optional deterministic randomness (tests); defaults to the OS
            CSPRNG.
    """
    if kappa < 1:
        raise OTExtensionError(f"kappa must be >= 1, got {kappa}")
    if rng is None:
        # One CSPRNG draw for all 2 * kappa seeds, one for the choice vector.
        raw = secrets.token_bytes(2 * kappa * SEED_BYTES)
        seeds = [raw[i : i + SEED_BYTES] for i in range(0, len(raw), SEED_BYTES)]
        seed_pairs = list(zip(seeds[0::2], seeds[1::2]))
        choice_bytes = secrets.token_bytes((kappa + 7) // 8)
        choice = _unpack_bits(int.from_bytes(choice_bytes, "little"), kappa)
    else:
        # Seeded (tests, benches): the historical per-byte, then per-bit order.
        seed_pairs = [
            (
                bytes(rng.getrandbits(8) for _ in range(SEED_BYTES)),
                bytes(rng.getrandbits(8) for _ in range(SEED_BYTES)),
            )
            for _ in range(kappa)
        ]
        choice = tuple(rng.getrandbits(1) for _ in range(kappa))
    recovered, sender_bytes, receiver_bytes = run_oblivious_transfer(
        seed_pairs, list(choice), rng=rng, group=group
    )
    return BaseOTCorrelation(
        kappa=kappa,
        sender_choice=choice,
        sender_seeds=tuple(recovered),
        receiver_seed_pairs=tuple((a, b) for a, b in seed_pairs),
        base_ot_bytes=sender_bytes + receiver_bytes,
    )


def session_wire_bytes(kappa: int, group: Optional[OTGroup] = None) -> Tuple[int, int]:
    """``(extension sender, extension receiver)`` bytes of a ``kappa``-base-OT session.

    The extension sender is the base-OT *receiver*: it sends the ``kappa``
    keys.  The extension receiver is the base-OT *sender*: it sends ``C``,
    ``g^r`` and the ``2 kappa`` masked seeds.  Used by the cost accounting
    instead of the measured bytes of whichever correlation happened to
    serve a window, so byte counts are a pure function of the protocol
    parameters (shard-invariant by construction).
    """
    base_sender, base_receiver = batch_wire_bytes(kappa, SEED_BYTES, group)
    return base_receiver, base_sender


@dataclass
class PreparedOTBatch:
    """A batch of precomputed random OTs, ready for online derandomization.

    Produced offline by :func:`derive_batch`; consumed exactly once by
    :meth:`transfer`.

    Attributes:
        count: number of transfers in the batch.
        msg_len: byte length of each transferable message.
        random_choices: the receiver's random choice bits ``c_j``.
        receiver_pads: the receiver's pads ``H(t_j)``.
        sender_pad_pairs: the sender's pad pairs ``(H(q_j), H(q_j XOR s))``.
        extension_bytes: bytes of the offline extension messages (the ``u``
            correction columns).
    """

    count: int
    msg_len: int
    random_choices: Tuple[int, ...]
    receiver_pads: Tuple[bytes, ...]
    sender_pad_pairs: Tuple[Tuple[bytes, bytes], ...]
    extension_bytes: int
    _used: bool = field(default=False, repr=False)

    @property
    def used(self) -> bool:
        return self._used

    def online_wire_bytes(self) -> int:
        """Bytes the online phase will exchange (corrections + masked pairs)."""
        return (self.count + 7) // 8 + 2 * self.count * self.msg_len

    def transfer(
        self,
        message_pairs: Sequence[Tuple[bytes, bytes]],
        choice_bits: Sequence[int],
    ) -> Tuple[List[bytes], int]:
        """Run the online Beaver derandomization for real messages/choices.

        Args:
            message_pairs: one ``(m0, m1)`` pair per transfer.
            choice_bits: the receiver's real choice bit per transfer.

        Returns:
            ``(recovered, online_bytes)`` — the chosen messages and the
            bytes this online exchange put on the wire.

        Raises:
            OTExtensionError: on reuse or length mismatch.
        """
        if self._used:
            raise OTExtensionError(
                "prepared OT batch already consumed (pads are one-shot)"
            )
        if len(message_pairs) != self.count or len(choice_bits) != self.count:
            raise OTExtensionError(
                f"batch holds {self.count} transfers, got "
                f"{len(message_pairs)} pairs / {len(choice_bits)} choices"
            )
        self._used = True

        # Sender: f_k = m_{k XOR d_j} XOR pad_k for every transfer at once,
        # one big-int XOR per k over the joined messages and pads; the
        # receiver picks f_{c_j} and unmasks it with its own pad.
        width = self.msg_len
        first: List[bytes] = []
        second: List[bytes] = []
        for j, ((m0, m1), bit, c) in enumerate(
            zip(message_pairs, choice_bits, self.random_choices)
        ):
            if len(m0) != width or len(m1) != width:
                raise OTExtensionError(f"messages must be {width} bytes (transfer {j})")
            if (int(bit) & 1) ^ c:
                m0, m1 = m1, m0
            first.append(m0)
            second.append(m1)
        f0 = _xor(b"".join(first), b"".join(pad0 for pad0, _ in self.sender_pad_pairs))
        f1 = _xor(b"".join(second), b"".join(pad1 for _, pad1 in self.sender_pad_pairs))
        starts = range(0, self.count * width, width)
        chosen = b"".join(
            (f1 if c else f0)[start : start + width]
            for start, c in zip(starts, self.random_choices)
        )
        unmasked = _xor(chosen, b"".join(self.receiver_pads))
        recovered = [unmasked[start : start + width] for start in starts]
        return recovered, self.online_wire_bytes()


def _prg_matrix(seeds: Sequence[bytes], tags: Sequence[bytes], length: int) -> np.ndarray:
    """``G(seed_i)`` under ``tags[i]`` for every ``i``, as a ``len(seeds) x length`` matrix."""
    if length <= _BLOCK_BYTES:
        sha256 = hashlib.sha256
        stream = b"".join(sha256(seed + tag + _BLOCK_0).digest() for seed, tag in zip(seeds, tags))
        return np.frombuffer(stream, np.uint8).reshape(len(seeds), _BLOCK_BYTES)[:, :length]
    stream = b"".join(_prg(seed, tag, length) for seed, tag in zip(seeds, tags))
    return np.frombuffer(stream, np.uint8).reshape(len(seeds), length)


def _rows(columns: np.ndarray, count: int) -> np.ndarray:
    """Transpose a column-wise bit matrix into ``count`` packed rows."""
    bits = np.unpackbits(columns, axis=1, count=count, bitorder="little")
    return np.packbits(bits.T, axis=1, bitorder="little")


def derive_batch(
    correlation: BaseOTCorrelation,
    count: int,
    msg_len: int,
    instance: bytes,
    choice_rng: Optional[random.Random] = None,
) -> PreparedOTBatch:
    """Extend the correlation into ``count`` precomputed random OTs.

    Pure symmetric-key work (offline): PRG-expand the base seeds, form the
    correction columns, hash rows into pads.

    Args:
        correlation: the standing base-OT correlation.
        count: number of transfers to prepare.
        msg_len: byte length of the messages the batch will carry.
        instance: a unique domain-separation tag for this batch.  Reusing a
            tag against the same correlation would reuse pads, so callers
            must guarantee uniqueness (see :func:`shared_correlation`).
        choice_rng: source of the receiver's random choice bits (defaults
            to the OS CSPRNG).
    """
    if count < 1:
        raise OTExtensionError(f"batch must contain >= 1 transfers, got {count}")
    kappa = correlation.kappa
    column_len = (count + 7) // 8
    row_len = (kappa + 7) // 8
    if choice_rng is None:
        c = int.from_bytes(secrets.token_bytes(column_len), "little") & ((1 << count) - 1)
        choices = _unpack_bits(c, count)
    else:
        choices = tuple(choice_rng.getrandbits(1) for _ in range(count))
        c = _pack_bits(choices)
    c_column = np.frombuffer(c.to_bytes(column_len, "little"), np.uint8)

    column_tag = b"col" + instance
    tags = [column_tag + i.to_bytes(4, "big") for i in range(kappa)]
    k0s, k1s = zip(*correlation.receiver_seed_pairs)
    # Receiver side: columns t_i = G(k_i^0); corrections u_i = t_i XOR
    # G(k_i^1) XOR c.  (Transmitting u is the extension's offline traffic.)
    t_columns = _prg_matrix(k0s, tags, column_len)
    u_columns = t_columns ^ _prg_matrix(k1s, tags, column_len) ^ c_column
    # Sender side: q_i = G(k_i^{s_i}) XOR (s_i ? u_i : 0)  =>  row_j =
    # t_j XOR (c_j & s).  Simulated in-process, but from the sender's own
    # seeds: a broken correlation must surface as mismatched pads.
    s_bits = np.array(correlation.sender_choice, np.uint8)
    q_columns = _prg_matrix(correlation.sender_seeds, tags, column_len) ^ (
        u_columns * s_bits[:, None]
    )
    q_rows = _rows(q_columns, count)
    q_flipped = (q_rows ^ np.packbits(s_bits, bitorder="little")).tobytes()
    q_plain = q_rows.tobytes()
    t_rows = _rows(t_columns, count).tobytes()

    receiver_pads: List[bytes] = []
    sender_pad_pairs: List[Tuple[bytes, bytes]] = []
    pad_tag = b"iknp-pad" + instance
    for j, start in enumerate(range(0, count * row_len, row_len)):
        end = start + row_len
        prefix = pad_tag + j.to_bytes(4, "big")
        pad0 = _hash_pad(prefix, q_plain[start:end], msg_len)
        pad1 = _hash_pad(prefix, q_flipped[start:end], msg_len)
        sender_pad_pairs.append((pad0, pad1))
        # Receiver knows t_j = q_j XOR (c_j & s): its pad is pad_{c_j}, but
        # hashed from its own row, never copied from the sender's.
        receiver_pads.append(_hash_pad(prefix, t_rows[start:end], msg_len))

    return PreparedOTBatch(
        count=count,
        msg_len=msg_len,
        random_choices=choices,
        receiver_pads=tuple(receiver_pads),
        sender_pad_pairs=tuple(sender_pad_pairs),
        extension_bytes=kappa * column_len,
    )


# -- process-wide correlation cache ------------------------------------------------
#
# Establishing a correlation costs ``kappa`` public-key base OTs of real
# wall-clock time.  Cryptographically one standing correlation can be
# extended forever (unique instance tags keep every derived pad distinct),
# so the in-process simulation shares one per (kappa, group) — exactly the
# reservoir philosophy of :mod:`repro.crypto.accel`: the *accounting* of
# base-OT sessions is charged per window by the protocol layer and never
# depends on where the real work happened.

_CORRELATION_CACHE: Dict[Tuple[int, int], BaseOTCorrelation] = {}


def shared_correlation(
    kappa: int = DEFAULT_KAPPA, group: Optional[OTGroup] = None
) -> BaseOTCorrelation:
    """Return the process-wide correlation for ``(kappa, group)``.

    Created on first use with CSPRNG randomness.  A parent process that
    establishes it before forking hands it to every worker.
    """
    group = group or OTGroup.default()
    key = (kappa, group.p)
    correlation = _CORRELATION_CACHE.get(key)
    if correlation is None:
        correlation = establish_correlation(kappa, group=group)
        _CORRELATION_CACHE[key] = correlation
    return correlation


def fresh_instance_tag() -> bytes:
    """A globally-unique domain-separation tag for one derived batch.

    Drawn from the kernel CSPRNG rather than a process counter: forked
    worker processes inherit both the correlation cache and any counter
    state, and two workers extending the same inherited correlation under
    the same tag would derive byte-identical one-time pads for different
    wire labels — the cross-shard pad reuse this module forbids.
    ``os.urandom``-backed draws cannot collide across forks.
    """
    return secrets.token_bytes(16)
