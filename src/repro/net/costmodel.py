"""Cost model for simulated protocol runtime.

The paper's Figure 5 reports wall-clock runtime of the PEM prototype on a
CloudLab ARM server with one Docker container per agent.  Because this
reproduction executes all parties in a single Python process, raw wall-clock
time would mostly measure the Python interpreter rather than the system the
paper describes.  We therefore model runtime explicitly:

* every Paillier encryption / decryption / homomorphic multiplication is
  charged a key-size-dependent cost (calibrated against the relative cost of
  modular exponentiation, which grows roughly cubically in the key size),
* every message is charged per-message latency plus size / bandwidth,
* the garbled-circuit comparison is charged per non-free gate plus the OT
  exponentiations.

The paper observes that encryption/decryption is pipelined during idle time
("the key size ... does not affect the runtime since the encryption and
decryption are independently executed in parallel during idle time"), so the
cost model separates *critical-path* communication/aggregation cost from
*offloadable* crypto cost and exposes both.

The acceleration layer (:mod:`repro.crypto.accel`) makes that split
concrete: obfuscators are precomputed *offline* (charged via
:meth:`CostModel.offline_precompute_cost` to a separate offline clock) and
the *online* cost of a pooled encryption collapses to a single modular
multiplication (:meth:`CostModel.encryption_cost` with ``pooled=True``).
Decryption costs assume the CRT fast path by default
(``crt_decrypt_speedup``).

Communication is charged with a *latency-hiding* model: hops that are
independent of each other (one layer of an aggregation-topology schedule,
a broadcast, the pairwise routing round) cost the ``max`` over the layer's
hops — one message time — while layers themselves are sequential
(:meth:`CostModel.layered_aggregation_cost`).
The serial chain is the degenerate one-hop-per-layer case; tree topologies
(:mod:`repro.core.protocols.topology`) cut the aggregation critical path
from O(n) to O(log n) layers without changing a byte on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = [
    "CryptoCostModel",
    "NetworkCostModel",
    "CostModel",
    "pipelined_day_cost",
    "unpipelined_day_cost",
]


@dataclass(frozen=True)
class CryptoCostModel:
    """Per-operation cost (seconds) of the cryptographic primitives.

    The reference costs correspond to a 1024-bit key on the paper's ARM
    server class hardware; other key sizes are scaled by ``(bits/1024)^3``
    to reflect the cubic growth of modular exponentiation.

    Attributes (beyond the per-primitive reference costs):
        crt_decrypt_speedup: factor by which CRT decryption (half-width
            moduli and exponents) beats the textbook formula; set to 1.0
            to model a deployment without the fast path.
        pooled_encrypt_reference_seconds: online cost of an encryption
            whose obfuscator comes from a randomizer pool — a single
            modular multiplication, same order as a homomorphic op.
        obfuscator_reference_seconds: offline cost of precomputing one
            ``r^n mod n^2`` obfuscator via the key owner's CRT path
            (~half a fresh encryption).
        garble_gate_seconds: offline cost of garbling one non-free gate
            when preparing a comparison instance (four SHA-256 row
            encryptions plus label bookkeeping).
        eval_gate_seconds: online cost of evaluating one non-free garbled
            gate (a single SHA-256 row decryption).
        ot_extension_transfer_seconds: online cost of one *extended* OT
            (Beaver derandomization: XOR and a table lookup — symmetric
            work, three orders of magnitude below a public-key OT).

    The garbled-circuit costs are key-size independent (symmetric crypto
    and a fixed DH group), matching the paper's observation that the
    comparison does not scale with the Paillier key.
    """

    key_size: int = 1024
    encrypt_reference_seconds: float = 0.008
    decrypt_reference_seconds: float = 0.008
    homomorphic_op_reference_seconds: float = 0.00002
    garbled_gate_seconds: float = 0.00002
    ot_transfer_seconds: float = 0.0015
    crt_decrypt_speedup: float = 3.5
    pooled_encrypt_reference_seconds: float = 0.00002
    obfuscator_reference_seconds: float = 0.004
    garble_gate_seconds: float = 0.000016
    eval_gate_seconds: float = 0.000004
    ot_extension_transfer_seconds: float = 0.000002

    def _scale(self) -> float:
        return (self.key_size / 1024.0) ** 3

    @property
    def encrypt_seconds(self) -> float:
        return self.encrypt_reference_seconds * self._scale()

    @property
    def pooled_encrypt_seconds(self) -> float:
        """Online cost of one pooled encryption (a single mulmod)."""
        return self.pooled_encrypt_reference_seconds * self._scale()

    @property
    def obfuscator_seconds(self) -> float:
        """Offline cost of precomputing one randomizer-pool obfuscator."""
        return self.obfuscator_reference_seconds * self._scale()

    @property
    def decrypt_seconds(self) -> float:
        return self.decrypt_reference_seconds * self._scale() / max(
            1.0, self.crt_decrypt_speedup
        )

    @property
    def homomorphic_op_seconds(self) -> float:
        return self.homomorphic_op_reference_seconds * self._scale()

    def comparison_seconds(
        self, gate_count: int, ot_count: int, pooled: bool = False
    ) -> float:
        """Online cost of one garbled-circuit comparison.

        ``pooled`` means the instance was prepared offline: the online
        phase only evaluates (one hash per non-free gate) and
        derandomizes the precomputed OTs (XOR each).  The inline path
        garbles and runs ``ot_count`` public-key transfers inline.
        """
        if pooled:
            return (
                gate_count * self.eval_gate_seconds
                + ot_count * self.ot_extension_transfer_seconds
            )
        return gate_count * self.garbled_gate_seconds + ot_count * self.ot_transfer_seconds

    def prepared_comparison_seconds(self, gate_count: int, count: int = 1) -> float:
        """Offline cost of garbling ``count`` comparison instances."""
        return count * gate_count * self.garble_gate_seconds

    def base_ot_session_seconds(self, base_ot_count: int) -> float:
        """Offline cost of one OT-extension session's public-key base OTs."""
        return base_ot_count * self.ot_transfer_seconds


@dataclass(frozen=True)
class NetworkCostModel:
    """Latency/bandwidth model for the simulated links between containers.

    Attributes:
        per_message_latency_seconds: one-way latency of a single message hop.
        bandwidth_bytes_per_second: link bandwidth between containers.
        per_window_setup_seconds: fixed per-window session/coordination
            overhead (container wake-up, role lookup, connection reuse) —
            the constant part of the paper's ~1 s per-window runtime.
    """

    per_message_latency_seconds: float = 0.0005
    bandwidth_bytes_per_second: float = 100e6  # 100 MB/s LAN between containers
    per_window_setup_seconds: float = 0.5

    def message_seconds(self, size_bytes: int) -> float:
        return self.per_message_latency_seconds + size_bytes / self.bandwidth_bytes_per_second


@dataclass(frozen=True)
class CostModel:
    """Combined crypto + network cost model for a protocol run.

    Attributes:
        crypto: the per-primitive crypto cost model.
        network: the per-message network cost model.
        pipelined_crypto: when True (the paper's deployment), encryption and
            decryption are performed during idle time and do not contribute
            to the critical-path runtime; homomorphic aggregation and the
            secure comparison always do.
    """

    crypto: CryptoCostModel = CryptoCostModel()
    network: NetworkCostModel = NetworkCostModel()
    pipelined_crypto: bool = True

    @classmethod
    def for_key_size(cls, key_size: int, pipelined_crypto: bool = True) -> "CostModel":
        """Construct a cost model for one of the paper's key sizes."""
        return cls(
            crypto=CryptoCostModel(key_size=key_size),
            network=NetworkCostModel(),
            pipelined_crypto=pipelined_crypto,
        )

    def encryption_cost(self, count: int = 1, pooled: bool = False) -> float:
        """Critical-path cost of ``count`` encryptions (0 when pipelined).

        ``pooled`` encryptions use a precomputed obfuscator, so even on the
        critical path they only cost a modular multiplication each; the
        exponentiation they saved shows up in
        :meth:`offline_precompute_cost` instead.
        """
        if self.pipelined_crypto:
            return 0.0
        if pooled:
            return count * self.crypto.pooled_encrypt_seconds
        return count * self.crypto.encrypt_seconds

    def decryption_cost(self, count: int = 1) -> float:
        """Critical-path cost of ``count`` decryptions (0 when pipelined)."""
        if self.pipelined_crypto:
            return 0.0
        return count * self.crypto.decrypt_seconds

    def offline_precompute_cost(self, count: int = 1) -> float:
        """Idle-time cost of precomputing ``count`` pool obfuscators.

        Never part of the critical path: it is accumulated on the separate
        offline clock (:attr:`TrafficStats.offline_seconds`) so benchmarks
        can report the offline/online split.
        """
        return count * self.crypto.obfuscator_seconds

    def aggregation_cost(self, count: int = 1) -> float:
        """Cost of ``count`` homomorphic ciphertext multiplications."""
        return count * self.crypto.homomorphic_op_seconds

    def layered_aggregation_cost(self, depth: int, bytes_per_hop: int) -> float:
        """Critical-path cost of a layered (latency-hiding) aggregation.

        All hops within one layer of an aggregation schedule are
        independent and proceed concurrently, so a layer is charged the
        ``max`` over its hops — one message time when hops carry equally
        sized ciphertexts — rather than their sum.  ``depth`` is the
        schedule's critical-path depth (merge layers plus the delivery
        hop); a chain of ``n`` contributors has depth ``n`` and is charged
        ``n`` sequential message times, a k-ary tree has depth
        ``ceil(log_k n) + 1`` — the O(n / log n) online win the tree
        topologies exist for.
        """
        return depth * self.network.message_seconds(bytes_per_hop)

    def round_cost(self, bytes_per_message: int) -> float:
        """Critical-path cost of one *parallel* communication round.

        Broadcasts, ratio submissions, pairwise energy routing and payments
        all proceed concurrently across agent pairs, so the critical path is
        a single message time regardless of how many pairs participate.
        """
        return self.network.message_seconds(bytes_per_message)

    def window_setup_cost(self) -> float:
        """Fixed per-window protocol session overhead."""
        return self.network.per_window_setup_seconds

    def comparison_cost(
        self, gate_count: int, ot_count: int, pooled: bool = False
    ) -> float:
        """Online cost of one secure comparison (always on the critical path).

        A ``pooled`` comparison evaluates a prepared instance — symmetric
        work only; the garbling and public-key OTs it saved show up in
        :meth:`comparison_offline_cost` / :meth:`comparison_session_cost`.
        """
        return self.crypto.comparison_seconds(gate_count, ot_count, pooled=pooled)

    def comparison_offline_cost(self, gate_count: int, count: int = 1) -> float:
        """Idle-time cost of preparing ``count`` comparison instances.

        Accumulated on the dedicated ``gc_offline_seconds`` clock
        (:class:`~repro.net.stats.TrafficStats`), never the critical path.
        """
        return self.crypto.prepared_comparison_seconds(gate_count, count)

    def comparison_session_cost(self, base_ot_count: int) -> float:
        """Idle-time cost of one window's OT-extension base-OT session."""
        return self.crypto.base_ot_session_seconds(base_ot_count)

    @classmethod
    def for_wan_profile(cls, key_size: int, pipelined_crypto: bool = True) -> "CostModel":
        """A cost model whose links look like homes on a real WAN.

        The default :class:`NetworkCostModel` models containers on one LAN
        (0.5 ms, 100 MB/s).  The paper's deployment puts a container in
        every *home*, so inter-home messages cross residential broadband:
        ~5 ms one-way latency, ~20 MB/s.  Under this profile the online
        (network-bound) and offline (compute-bound) clocks of a window are
        comparable — the regime where overlapping window W+1's offline
        phase with window W's online phase (see :func:`pipelined_day_cost`)
        pays off; on the LAN profile the offline clock dominates and
        pipelining can only shave the smaller online share.
        """
        return cls(
            crypto=CryptoCostModel(key_size=key_size),
            network=NetworkCostModel(
                per_message_latency_seconds=0.005,
                bandwidth_bytes_per_second=20e6,
            ),
            pipelined_crypto=pipelined_crypto,
        )


def unpipelined_day_cost(phases: Sequence[Tuple[float, float]]) -> float:
    """Simulated day runtime with offline and online phases run back-to-back.

    ``phases`` is one ``(offline_seconds, online_seconds)`` pair per window,
    in execution order.  This is the day clock of a deployment that, at
    every window boundary, first performs the window's offline work (pool
    warm-ups, garbling, OT-extension batches) and then runs its online
    phase: the plain sum of both clocks.
    """
    return sum(offline + online for offline, online in phases)


def pipelined_day_cost(phases: Sequence[Tuple[float, float]]) -> float:
    """Simulated day runtime with window W+1's offline phase overlapped.

    The pipelined schedule issues window W+1's offline work while window
    W's online phase runs (day-scoped sessions keep the material valid
    across the boundary), so each pipeline slot is charged
    ``max(online_W, offline_W+1)`` instead of their sum — the same
    sum-of-max shape :meth:`CostModel.layered_aggregation_cost` charges
    for concurrent hops within a tree layer.  The edges stay serial: the
    first window's offline phase has nothing to hide behind, and the last
    window's online phase nothing left to hide.

    ``phases`` is one ``(offline_seconds, online_seconds)`` pair per window
    in execution order; the result is never larger than
    :func:`unpipelined_day_cost` and never smaller than either clock's sum
    alone.
    """
    ordered = list(phases)
    if not ordered:
        return 0.0
    total = ordered[0][0]  # the anchor window's offline phase runs exposed
    for index in range(len(ordered) - 1):
        total += max(ordered[index][1], ordered[index + 1][0])
    return total + ordered[-1][1]
