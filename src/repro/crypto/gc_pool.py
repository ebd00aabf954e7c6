"""Offline pools of precomputed garbled-comparison instances.

PR 1 established the offline/online split for Paillier: heavy
exponentiations move to idle time (:mod:`repro.crypto.accel`), the online
clock pays a single mulmod.  After PR 2 sharded windows across workers, the
garbled-circuit comparison of Protocol 2 became the dominant *online* cost
at small agent counts: every comparison garbled a fresh comparator circuit
and ran ``bit_width`` public-key oblivious transfers on the critical path.

This module extends the same split to the garbled-circuit layer:

* a :class:`PreparedComparison` is one fully-garbled comparator circuit
  together with a precomputed random-OT batch
  (:class:`~repro.crypto.otext.PreparedOTBatch`) for the evaluator's input
  labels.  Everything public-key or garbling-related happened when it was
  built; :meth:`PreparedComparison.evaluate` only selects labels, runs the
  XOR-only Beaver derandomization and hashes twice per AND gate — pure
  symmetric-key online work.
* a :class:`ComparisonPool` owns prepared instances for one bit width, in
  exactly the :class:`~repro.crypto.accel.RandomizerPool` shape: ``warm``/
  ``refill`` are the *accounted* offline work of a window, ``take`` is the
  online hand-out, an unaccounted *reservoir* holds recycled and
  pipeline-staged instances, and ``recycle`` parks unused instances at
  window boundaries so per-window offline accounting is shard-invariant.

The one-shot invariant
----------------------

A garbled circuit may be evaluated **once**.  Evaluating the same tables
under two different input-label selections would hand the evaluator two
active labels per reused wire — enough to start decrypting rows it must not
open — and the precomputed OT pads are one-time pads over the labels.  Both
:class:`PreparedComparison` and the underlying OT batch therefore refuse to
run twice, and the pool's ``reservoir -> pool -> take`` flow hands every
instance out at most once, mirroring the obfuscator discipline of
:mod:`repro.crypto.accel`.

Randomness: wire labels, ``Δ`` and random OT choices are drawn from
the **system CSPRNG** by default, never from a seed-derived stream — a
derived stream restarted in two worker processes would garble two circuits
with identical labels, exactly the cross-shard collision PR 2 outlawed for
Paillier randomizers.  (Labels influence no result, byte count or clock, so
OS entropy costs no determinism.)

Session accounting
------------------

The base-OT phase of the extension is charged per *session*: the first
offline production after pool creation or a :meth:`ComparisonPool.recycle`
starts a new session (``sessions_started`` increments), modeling a
deployment that refreshes its OT-extension session every trading window.
The real base OTs are amortized through a process-wide correlation (see
:func:`repro.crypto.otext.shared_correlation`); like the reservoir, this
only moves *wall-clock* work — the accounted counters are a pure function
of the warm/take call sequence.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from .circuits import Circuit, build_greater_than_circuit, int_to_bits
from .garbled import ROW_BYTES, GarblerOutput, evaluate_garbled_circuit, garble_circuit, label_key
from .ot import OTGroup
from .otext import (
    DEFAULT_KAPPA,
    BaseOTCorrelation,
    derive_batch,
    fresh_instance_tag,
    session_wire_bytes,
    shared_correlation,
)

__all__ = ["ComparisonError", "PreparedComparison", "PreparedComparisonRun", "ComparisonPool"]


class ComparisonError(Exception):
    """Raised on misuse of prepared comparisons (reuse, range violations)."""


@dataclass(frozen=True)
class PreparedComparisonRun:
    """Outcome of evaluating one prepared comparison online.

    Attributes:
        result: the boolean ``garbler_value > evaluator_value``.
        garbler_bytes_sent: online + offline bytes attributed to the
            garbler side (garbled tables, its input labels, the masked
            label pairs of the derandomized OTs and — for the first
            comparison of a session — its base-OT keys).
        evaluator_bytes_sent: bytes attributed to the evaluator side (OT
            correction bits, the extension's ``u`` columns and — for the
            first comparison of a session — the base-OT ``C``, ``g^r``
            and masked seeds).
        and_gate_count: non-free gates of the circuit (cost indicator).
        ot_count: number of (extended) oblivious transfers.
        session_fresh: whether this run carried a new OT-extension
            session's base-OT traffic.
    """

    result: bool
    garbler_bytes_sent: int
    evaluator_bytes_sent: int
    and_gate_count: int
    ot_count: int
    session_fresh: bool


class PreparedComparison:
    """One offline-garbled comparator instance, evaluable exactly once.

    Built by :class:`ComparisonPool` (or directly in tests).  All
    public-key and garbling work happens at construction; the instance is
    self-contained, so it may be built one window ahead (pipeline staging)
    and consumed later.
    """

    def __init__(
        self,
        circuit: Circuit,
        bit_width: int,
        correlation: BaseOTCorrelation,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.bit_width = bit_width
        self.circuit = circuit
        self._garbler: GarblerOutput = garble_circuit(circuit, rng=rng)
        self._ot_batch = derive_batch(
            correlation,
            count=bit_width,
            msg_len=ROW_BYTES,
            instance=fresh_instance_tag(),
            choice_rng=rng,
        )
        #: idle-time bytes this instance put on the wire when prepared:
        #: garbled tables + the extension's correction columns.
        self.offline_bytes = (
            self._garbler.garbled.serialized_size() + self._ot_batch.extension_bytes
        )
        #: ``(garbler, evaluator)`` base-OT bytes, set by the pool when this
        #: instance opens a new per-window OT-extension session and must
        #: carry its traffic.
        self.session_bytes: Tuple[int, int] = (0, 0)
        self._used = False

    @property
    def used(self) -> bool:
        return self._used

    @property
    def and_gate_count(self) -> int:
        return self.circuit.and_gate_count

    def evaluate(self, garbler_value: int, evaluator_value: int) -> PreparedComparisonRun:
        """Online evaluation: ``garbler_value > evaluator_value``.

        Only symmetric-key work: label selection, the XOR-only OT
        derandomization, two hashes per AND gate, output decoding.

        Raises:
            ComparisonError: on reuse or inputs outside ``[0, 2^bit_width)``.
        """
        if self._used:
            raise ComparisonError("prepared comparison already evaluated (one-shot)")
        for name, value in (("garbler", garbler_value), ("evaluator", evaluator_value)):
            if value < 0:
                raise ComparisonError(f"{name} value must be non-negative, got {value}")
            if value >= (1 << self.bit_width):
                raise ComparisonError(
                    f"{name} value {value} does not fit in {self.bit_width} bits"
                )
        self._used = True

        garbler_bits = int_to_bits(garbler_value, self.bit_width)
        evaluator_bits = int_to_bits(evaluator_value, self.bit_width)
        garbler_keys = self._garbler.garbler_input_keys(garbler_bits)
        label_pairs = self._garbler.evaluator_label_pairs()
        recovered, ot_online_bytes = self._ot_batch.transfer(label_pairs, evaluator_bits)
        evaluator_keys = [label_key(data) for data in recovered]
        output_bits = evaluate_garbled_circuit(self._garbler.garbled, garbler_keys, evaluator_keys)

        # Byte attribution mirrors run_two_party_computation: the garbler
        # ships tables, its own labels and the masked OT replies; the
        # evaluator ships corrections and extension columns.  A fresh
        # session's base OTs run the other way round — the evaluator (the
        # extension receiver) is their sender — and each side is charged
        # the base-OT messages it sends.
        correction_bytes = (self.bit_width + 7) // 8
        masked_pair_bytes = ot_online_bytes - correction_bytes
        session_garbler, session_evaluator = self.session_bytes
        garbler_bytes = (
            self._garbler.garbled.serialized_size()
            + len(garbler_keys) * ROW_BYTES
            + masked_pair_bytes
            + session_garbler
        )
        evaluator_bytes = (
            correction_bytes + self._ot_batch.extension_bytes + session_evaluator
        )
        return PreparedComparisonRun(
            result=bool(output_bits[0]),
            garbler_bytes_sent=garbler_bytes,
            evaluator_bytes_sent=evaluator_bytes,
            and_gate_count=self.circuit.and_gate_count,
            ot_count=self.bit_width,
            session_fresh=self.session_bytes != (0, 0),
        )


class ComparisonPool:
    """A one-shot pool of prepared garbled comparisons for one bit width.

    The pool is the *accounted* container (``warm``/``refill`` model a
    window's offline preparation, ``take`` the online hand-out); behind it
    sits an unaccounted *reservoir* of recycled and pre-staged instances.
    ``produced``/``consumed``/``fallback_count``/
    ``sessions_started`` never depend on the reservoir state — the same
    invariant that keeps sharded Paillier accounting bit-identical.

    Args:
        bit_width: width of the comparator circuit instances.
        kappa: OT-extension security parameter (base OTs per session).
        group: DH group for the base OTs.
        rng: label randomness for instances built by ``warm``/``refill``
            (defaults to the system CSPRNG — see the module docstring for
            why a derived stream is forbidden here).
    """

    def __init__(
        self,
        bit_width: int,
        kappa: int = DEFAULT_KAPPA,
        group: Optional[OTGroup] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if bit_width < 1:
            raise ComparisonError(f"bit width must be >= 1, got {bit_width}")
        self.bit_width = bit_width
        self.kappa = kappa
        self._group = group or OTGroup.default()
        self.circuit = build_greater_than_circuit(bit_width)
        # Compile here, once per pool, before any instance is garbled.
        self.circuit.program  # noqa: B018 - cached on the circuit
        self._rng = rng
        self._pool: Deque[PreparedComparison] = deque()
        self._reservoir: Deque[PreparedComparison] = deque()
        #: window-tagged pre-staged instances (pipelined runs) — see
        #: :meth:`reserve`.
        self._reservations: Dict[int, List[PreparedComparison]] = {}
        self._session_open = False
        self._session_bytes_pending = False
        self.produced = 0
        self.consumed = 0
        self.fallback_count = 0
        #: total instances ever pre-staged via :meth:`reserve` (window
        #: pipelining) — unaccounted wall-clock work.
        self.reserved = 0
        #: per-window OT-extension sessions the accounting has opened; the
        #: protocol layer charges ``kappa`` base OTs per session.
        self.sessions_started = 0

    @property
    def available(self) -> int:
        """Prepared comparisons currently in the accounted pool."""
        return len(self._pool)

    @property
    def reservoir_available(self) -> int:
        """Unaccounted instances waiting in the reservoir."""
        return len(self._reservoir)

    @property
    def and_gate_count(self) -> int:
        """Non-free gates per instance (what offline garbling costs)."""
        return self.circuit.and_gate_count

    def session_wire_bytes(self) -> Tuple[int, int]:
        """Deterministic ``(garbler, evaluator)`` base-OT wire bytes of one session."""
        return session_wire_bytes(self.kappa, self._group)

    def _build(self, rng: Optional[random.Random]) -> PreparedComparison:
        correlation = shared_correlation(self.kappa, self._group)
        return PreparedComparison(self.circuit, self.bit_width, correlation, rng=rng)

    def _next_instance(self) -> PreparedComparison:
        """A never-used instance: reservoir pop, or built inline."""
        if self._reservoir:
            return self._reservoir.popleft()
        return self._build(self._rng)

    # -- pipeline staging (unaccounted) ----------------------------------------

    def reserve(self, window: int, count: int) -> int:
        """Pre-stage ``count`` instances *for* ``window`` (pipeline stage).

        Instances are built with ``rng=None`` — label/choice randomness
        from the system CSPRNG, never the pool's ``rng`` — and tagged to
        the window whose offline phase is being overlapped instead of
        entering the shared reservoir.  Only :meth:`claim_reservation` for
        that window releases them into the one-shot flow — a supervisor
        retry of an earlier window cannot consume (or re-account) them.
        Returns the number of instances staged.
        """
        if count <= 0:
            return 0
        instances = [self._build(None) for _ in range(count)]
        self._reservations.setdefault(window, []).extend(instances)
        self.reserved += count
        return count

    def reservation_available(self, window: int) -> int:
        """Pre-staged instances currently tagged to ``window``."""
        return len(self._reservations.get(window, ()))

    def claim_reservation(self, window: int) -> int:
        """Release ``window``'s pre-staged instances into the reservoir.

        Idempotent per window; the instances stay one-shot (reservation ->
        reservoir -> pool -> take, handed out at most once).  Accounting
        (``produced``/``sessions_started``) is untouched — the claiming
        window's ``warm``/``refill`` charges exactly what a cold window
        would.  Returns the number of instances claimed.
        """
        instances = self._reservations.pop(window, None)
        if not instances:
            return 0
        self._reservoir.extend(instances)
        return len(instances)

    def recycle(self, close_session: bool = True) -> int:
        """Park unused pool instances in the reservoir.

        Called at window boundaries (alongside the Paillier pools) so each
        window's offline accounting — instances produced *and* the base-OT
        session charge — is a function of that window alone.  The parked
        instances stay valid and one-shot.  Returns the number recycled.

        ``close_session`` selects the session discipline: ``True`` (the
        window-scoped default) also closes the OT-extension session, so
        the next window's first ``refill`` opens — and is charged for — a
        fresh base-OT session; ``False`` (day-scoped runs, see
        :mod:`repro.net.session`) keeps the session alive across the
        boundary, which is exactly what the scope amortizes.
        """
        moved = len(self._pool)
        self._reservoir.extend(self._pool)
        self._pool.clear()
        if close_session:
            self._session_open = False
        return moved

    # -- session lifecycle (the day-scope hooks) ---------------------------------

    def begin_session(self) -> None:
        """Open a new *accounted* OT-extension session explicitly.

        Used by day-scoped runs at the day's anchor window: the session —
        ``kappa`` base OTs — is established once here and then kept open
        across window boundaries (``recycle(close_session=False)``)
        instead of being re-paid by every window's first ``refill``.
        Increments :attr:`sessions_started` unconditionally, mirroring
        :meth:`refill`'s accounting for the window-scoped path.

        Unlike the lazy window-scoped flow — where the session's base-OT
        wire bytes ride on the first instance taken — the *caller*
        accounts the wire bytes (:meth:`session_wire_bytes`) at
        establishment: "the first comparison of the day" is not knowable
        inside a worker shard, the anchor window is.
        """
        self._session_open = True
        self._session_bytes_pending = False
        self.sessions_started += 1

    def ensure_session(self) -> bool:
        """Adopt an already-established session without accounting it.

        Used by day-scoped *worker shards* whose windows come after the
        day's anchor window: the anchor — possibly executed in another
        process — already paid for establishment, so this opens the local
        session state silently (no :attr:`sessions_started` increment, no
        pending base-OT bytes).  Returns ``True`` when the session had to
        be adopted, ``False`` when it was already open.
        """
        if self._session_open:
            return False
        self._session_open = True
        self._session_bytes_pending = False
        return True

    # -- offline phase ---------------------------------------------------------

    def refill(self, count: int) -> int:
        """Prepare ``count`` additional instances (accounted offline work)."""
        if count <= 0:
            return 0
        if not self._session_open:
            self._session_open = True
            self._session_bytes_pending = True
            self.sessions_started += 1
        for _ in range(count):
            self._pool.append(self._next_instance())
        self.produced += count
        return count

    def warm(self, target: int) -> int:
        """Top the pool up to ``target`` instances; returns the number built."""
        deficit = target - len(self._pool)
        if deficit <= 0:
            return 0
        return self.refill(deficit)

    def force_drain(self) -> int:
        """Discard every pooled instance (chaos hook, resource exhaustion).

        Models a mid-window loss of the precomputed material (evicted
        cache, restarted container): the accounted pool empties without
        recycling, so subsequent :meth:`take` calls fall back to the
        inline Yao protocol and are *counted* — the signature the recovery
        supervisor classifies as resource exhaustion.  The reservoir and
        the ``produced``/``consumed`` accounting are untouched.  Returns
        the number of instances discarded.
        """
        discarded = len(self._pool)
        self._pool.clear()
        return discarded

    def peek(self) -> Optional[PreparedComparison]:
        """The next instance :meth:`take` would hand out, without taking it.

        Chaos hook: lets the fault injector tamper prepared material in
        place so the *online evaluation* — not the injector — detects the
        corruption and fails closed.
        """
        return self._pool[0] if self._pool else None

    # -- online phase ----------------------------------------------------------

    def take(self) -> Optional[PreparedComparison]:
        """Hand out one prepared instance, or ``None`` when drained.

        Unlike the Paillier pool there is no cheap inline fallback — a
        fresh garbling plus public-key OTs belongs on the online clock —
        so a drained pool returns ``None``, counts the event in
        :attr:`fallback_count`, and the caller runs the inline Yao
        protocol (charged online, surfaced in the traffic stats).
        """
        self.consumed += 1
        if not self._pool:
            self.fallback_count += 1
            return None
        instance = self._pool.popleft()
        if self._session_bytes_pending:
            # The first comparison of a session carries its base-OT bytes
            # (a deterministic formula, so accounting stays shard-invariant
            # no matter when or where the instance was actually built).
            instance.session_bytes = self.session_wire_bytes()
            self._session_bytes_pending = False
        return instance
