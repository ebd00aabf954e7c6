"""Secure two-party comparison (Yao's millionaires' problem).

Protocol 2 of the PEM paper ends with the two randomly selected agents
``H_r1`` (holding the blinded demand aggregate ``R_b``) and ``H_r2``
(holding the blinded supply aggregate ``R_s``) executing a Fairplay-style
secure comparison to decide whether the market is *general*
(``R_s < R_b``, i.e. supply < demand) or *extreme*.  This module wraps the
garbled-circuit machinery into that single comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .circuits import build_greater_than_circuit, int_to_bits
from .garbled import run_two_party_computation

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from .gc_pool import PreparedComparison

__all__ = [
    "SecureComparisonResult",
    "secure_greater_than",
    "secure_less_than",
    "prepared_greater_than",
    "prepared_less_than",
]

#: Default bit width for compared values.  Aggregated, nonce-blinded net
#: energy values in PEM are fixed-point integers well below 2^64.
DEFAULT_BIT_WIDTH = 64


class SecureComparisonError(Exception):
    """Raised when the inputs do not fit the comparison circuit."""


@dataclass(frozen=True)
class SecureComparisonResult:
    """Outcome of one secure comparison.

    Attributes:
        result: the boolean comparison outcome.
        garbler_bytes_sent: bytes sent by the garbler (circuit + labels + OT).
        evaluator_bytes_sent: bytes sent by the evaluator (OT choices).
        and_gate_count: number of non-free gates garbled (cost indicator).
        pooled: whether the instance came prepared from an offline
            :class:`~repro.crypto.gc_pool.ComparisonPool` (only symmetric
            work happened online) or ran the inline Yao protocol inline.
    """

    result: bool
    garbler_bytes_sent: int
    evaluator_bytes_sent: int
    and_gate_count: int
    pooled: bool = False


def secure_greater_than(
    garbler_value: int,
    evaluator_value: int,
    bit_width: int = DEFAULT_BIT_WIDTH,
    rng: Optional[random.Random] = None,
) -> SecureComparisonResult:
    """Securely compute ``garbler_value > evaluator_value``.

    Both inputs must be non-negative integers representable in ``bit_width``
    bits.  The comparison runs a freshly garbled comparator circuit with the
    evaluator's labels delivered by oblivious transfer, so (in the
    semi-honest model) neither party learns anything beyond the single
    output bit.

    Args:
        garbler_value: the garbler's private input.
        evaluator_value: the evaluator's private input.
        bit_width: width of the comparator circuit.
        rng: optional deterministic randomness for tests.

    Returns:
        a :class:`SecureComparisonResult`.
    """
    for name, value in (("garbler", garbler_value), ("evaluator", evaluator_value)):
        if value < 0:
            raise SecureComparisonError(f"{name} value must be non-negative, got {value}")
        if value >= (1 << bit_width):
            raise SecureComparisonError(
                f"{name} value {value} does not fit in {bit_width} bits"
            )

    circuit = build_greater_than_circuit(bit_width)
    garbler_bits = int_to_bits(garbler_value, bit_width)
    evaluator_bits = int_to_bits(evaluator_value, bit_width)
    run = run_two_party_computation(circuit, garbler_bits, evaluator_bits, rng=rng)
    return SecureComparisonResult(
        result=bool(run.output_bits[0]),
        garbler_bytes_sent=run.garbler_bytes_sent,
        evaluator_bytes_sent=run.evaluator_bytes_sent,
        and_gate_count=circuit.and_gate_count,
    )


def secure_less_than(
    garbler_value: int,
    evaluator_value: int,
    bit_width: int = DEFAULT_BIT_WIDTH,
    rng: Optional[random.Random] = None,
) -> SecureComparisonResult:
    """Securely compute ``garbler_value < evaluator_value``.

    Implemented by swapping the operands of :func:`secure_greater_than`
    (the roles of garbler and evaluator stay with the same physical values;
    only the circuit inputs are exchanged, which is how Protocol 2 phrases
    the ``R_s < R_b`` test).
    """
    swapped = secure_greater_than(evaluator_value, garbler_value, bit_width=bit_width, rng=rng)
    return SecureComparisonResult(
        result=swapped.result,
        garbler_bytes_sent=swapped.garbler_bytes_sent,
        evaluator_bytes_sent=swapped.evaluator_bytes_sent,
        and_gate_count=swapped.and_gate_count,
    )


def prepared_greater_than(
    prepared: "PreparedComparison", garbler_value: int, evaluator_value: int
) -> SecureComparisonResult:
    """Compute ``garbler_value > evaluator_value`` on a prepared instance.

    The instance was garbled — and its oblivious transfers precomputed —
    offline (see :mod:`repro.crypto.gc_pool`); only symmetric-key label
    transfer and evaluation happen here.  Input validation mirrors
    :func:`secure_greater_than` so the two paths are interchangeable.

    Raises:
        SecureComparisonError: on out-of-range inputs, instance reuse, or a
            bit-width mismatch between the inputs and the prepared circuit.
    """
    from .gc_pool import ComparisonError

    try:
        run = prepared.evaluate(garbler_value, evaluator_value)
    except ComparisonError as exc:
        raise SecureComparisonError(str(exc)) from exc
    return SecureComparisonResult(
        result=run.result,
        garbler_bytes_sent=run.garbler_bytes_sent,
        evaluator_bytes_sent=run.evaluator_bytes_sent,
        and_gate_count=run.and_gate_count,
        pooled=True,
    )


def prepared_less_than(
    prepared: "PreparedComparison", garbler_value: int, evaluator_value: int
) -> SecureComparisonResult:
    """Compute ``garbler_value < evaluator_value`` on a prepared instance.

    Operand-swapped :func:`prepared_greater_than`, exactly like
    :func:`secure_less_than` swaps :func:`secure_greater_than`.
    """
    swapped = prepared_greater_than(prepared, evaluator_value, garbler_value)
    return SecureComparisonResult(
        result=swapped.result,
        garbler_bytes_sent=swapped.garbler_bytes_sent,
        evaluator_bytes_sent=swapped.evaluator_bytes_sent,
        and_gate_count=swapped.and_gate_count,
        pooled=True,
    )
