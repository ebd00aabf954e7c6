"""IKNP-style 1-out-of-2 oblivious-transfer extension.

The Bellare--Micali OT of :mod:`repro.crypto.ot` costs several modular
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
   ``k_i^{s_i}``.  This standing :class:`BaseOTCorrelation` can be extended
   arbitrarily often — that is the whole point of IKNP.
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

Matrix layout: the ``count x kappa`` bit matrix is held as one Python
``int`` per *column* — bit ``j`` of column ``i`` is bit ``j % 8`` of byte
``j // 8`` of ``G(k_i)``, i.e. ``int.from_bytes(G(k_i), "little")`` masked to
``count`` bits — so ``u_i`` and ``q_i`` are single big-int XORs.  Each side's
matrix is transposed once (:func:`_transpose`, via binary strings) into one
int per *row*, serialized little-endian (bit ``i`` of row ``j`` is column
``i``) before hashing.  ``tests/crypto/gc_oracles.py`` keeps the bit-list
original as the oracle this layout must match byte for byte.

One-shot discipline: a :class:`PreparedOTBatch` masks each message pair
with pads that are used **exactly once** — :meth:`transfer` refuses to run
twice, mirroring the obfuscator one-shot invariant of
:mod:`repro.crypto.accel` (a reused pad would leak the XOR of two labels).
"""

from __future__ import annotations

import hashlib
import random
import secrets
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .ot import OTGroup, run_oblivious_transfer

__all__ = [
    "DEFAULT_KAPPA",
    "OTExtensionError",
    "BaseOTCorrelation",
    "PreparedOTBatch",
    "establish_correlation",
    "correlation_wire_bytes",
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


def _transpose(columns: Sequence[int], height: int) -> List[int]:
    """Transpose a bit matrix held as one int per column into one per row.

    Bit ``j`` of ``columns[i]`` becomes bit ``i`` of ``rows[j]``, for
    ``j < height``.  One ``format`` per column and one ``int(..., 2)`` per
    row: binary strings are most-significant-bit first, so the columns are
    zipped in reverse (column 0 lands in the least significant bit) and the
    rows come out last-first.
    """
    strings = [format(column, f"0{height}b") for column in reversed(columns)]
    rows = [int("".join(chars), 2) for chars in zip(*strings)]
    rows.reverse()
    return rows


@dataclass(frozen=True)
class BaseOTCorrelation:
    """The standing IKNP correlation produced by the ``kappa`` base OTs.

    Attributes:
        kappa: number of base OTs / width of the bit matrix.
        sender_choice: the extension sender's secret vector ``s``.
        sender_seeds: the seeds ``k_i^{s_i}`` the sender obtained.
        receiver_seed_pairs: the receiver's seed pairs ``(k_i^0, k_i^1)``.
        base_ot_bytes: bytes the base OTs put on the wire (public-key
            ciphertexts and group elements — the *offline* session cost).
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
    recovered, transferred = run_oblivious_transfer(
        seed_pairs, list(choice), rng=rng, group=group
    )
    return BaseOTCorrelation(
        kappa=kappa,
        sender_choice=choice,
        sender_seeds=tuple(recovered),
        receiver_seed_pairs=tuple((a, b) for a, b in seed_pairs),
        base_ot_bytes=transferred,
    )


def correlation_wire_bytes(kappa: int, group: Optional[OTGroup] = None) -> int:
    """Deterministic wire size of a ``kappa``-base-OT session.

    Used by the cost accounting instead of the measured bytes of whichever
    correlation happened to serve a window, so byte counts are a pure
    function of the protocol parameters (shard-invariant by construction).
    """
    group = group or OTGroup.default()
    element_len = (group.p.bit_length() + 7) // 8
    return kappa * (element_len * 3 + 2 * SEED_BYTES)


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

        recovered: List[bytes] = []
        for j, ((m0, m1), bit) in enumerate(zip(message_pairs, choice_bits)):
            if len(m0) != self.msg_len or len(m1) != self.msg_len:
                raise OTExtensionError(
                    f"messages must be {self.msg_len} bytes (transfer {j})"
                )
            b = int(bit) & 1
            c = self.random_choices[j]
            d = b ^ c
            pad0, pad1 = self.sender_pad_pairs[j]
            # Sender: f_k = m_{k XOR d} XOR pad_k; receiver unmasks f_c.
            f = (
                _xor(m0 if d == 0 else m1, pad0),
                _xor(m1 if d == 0 else m0, pad1),
            )
            recovered.append(_xor(f[c], self.receiver_pads[j]))
        return recovered, self.online_wire_bytes()


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
    mask = (1 << count) - 1
    from_bytes = int.from_bytes
    if choice_rng is None:
        c = from_bytes(secrets.token_bytes(column_len), "little") & mask
        choices = _unpack_bits(c, count)
    else:
        choices = tuple(choice_rng.getrandbits(1) for _ in range(count))
        c = _pack_bits(choices)

    t_columns: List[int] = []
    q_columns: List[int] = []
    column_tag = b"col" + instance
    for i, ((k0, k1), seed, s_i) in enumerate(
        zip(correlation.receiver_seed_pairs, correlation.sender_seeds, correlation.sender_choice)
    ):
        tag = column_tag + i.to_bytes(4, "big")
        # Receiver side: column t_i = G(k_i^0); correction u_i = t_i XOR
        # G(k_i^1) XOR c.  (Transmitting u_i is the extension's offline traffic.)
        t_i = from_bytes(_prg(k0, tag, column_len), "little") & mask
        u_i = t_i ^ (from_bytes(_prg(k1, tag, column_len), "little") & mask) ^ c
        # Sender side: q_i = G(k_i^{s_i}) XOR (s_i ? u_i : 0)  =>  row_j =
        # t_j XOR (c_j & s).  Simulated in-process, but from the sender's own
        # seeds: a broken correlation must surface as mismatched pads.
        q_i = from_bytes(_prg(seed, tag, column_len), "little") & mask
        t_columns.append(t_i)
        q_columns.append(q_i ^ u_i if s_i else q_i)
    s = _pack_bits(correlation.sender_choice)

    receiver_pads: List[bytes] = []
    sender_pad_pairs: List[Tuple[bytes, bytes]] = []
    pad_tag = b"iknp-pad" + instance
    rows = zip(_transpose(q_columns, count), _transpose(t_columns, count))
    for j, (q_j, t_j) in enumerate(rows):
        prefix = pad_tag + j.to_bytes(4, "big")
        pad0 = _hash_pad(prefix, q_j.to_bytes(row_len, "little"), msg_len)
        pad1 = _hash_pad(prefix, (q_j ^ s).to_bytes(row_len, "little"), msg_len)
        sender_pad_pairs.append((pad0, pad1))
        # Receiver knows t_j = q_j XOR (c_j & s): its pad is pad_{c_j}, but
        # hashed from its own row, never copied from the sender's.
        receiver_pads.append(_hash_pad(prefix, t_j.to_bytes(row_len, "little"), msg_len))

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
_CORRELATION_LOCK = threading.Lock()


def shared_correlation(
    kappa: int = DEFAULT_KAPPA, group: Optional[OTGroup] = None
) -> BaseOTCorrelation:
    """Return the process-wide correlation for ``(kappa, group)``.

    Created on first use with CSPRNG randomness; safe to call from the
    protocol thread and the background refiller concurrently.
    """
    group = group or OTGroup.default()
    key = (kappa, group.p)
    with _CORRELATION_LOCK:
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
