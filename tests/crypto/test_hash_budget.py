"""The SHA-256 budget of one prepared comparison — a count, not a timing.

``docs/ARCHITECTURE.md`` §4.5 argues from the number of hashes a 64-bit
comparator at κ = 128 costs.  This pins that number exactly, per phase and
per comparator width, so a later change cannot add a hash (or drop one of
the two simulated OT parties' hashes) unnoticed.  Finalized digests are counted,
not constructor calls: half-gates hashes start from a copied pre-absorbed
state.
"""

import hashlib

import pytest

from helpers import shared_correlation
from repro.crypto import garbled
from repro.crypto.circuits import build_greater_than_circuit
from repro.crypto.gc_pool import PreparedComparison

KAPPA = 128

#: The 64-bit comparator at κ = 128: 4 x 64 garbling hashes + the OT
#: extension's 3 x 128 PRG columns and 3 x 64 pads of two hashes each + both
#: output labels to build; 2 x 64 + the active output label to evaluate.
PINNED_64 = (4 * 64 + 768 + 2, 2 * 64 + 1)


def budget(bit_width):
    """``(digests to build, digests to evaluate)`` of one prepared comparison.

    Building garbles ``bit_width`` AND gates at four hashes each, pays the
    OT extension (3 x κ PRG columns, 3 x ``bit_width`` pads of two hashes
    each) and hashes both labels of the one output wire; evaluating hashes
    twice per AND gate and the active output label once.
    """
    ot_extension = 3 * KAPPA + 3 * bit_width * 2
    return 4 * bit_width + ot_extension + 2, 2 * bit_width + 1


class _CountingSha256:
    """A ``hashlib.sha256`` stand-in that counts every finalized digest."""

    digests = 0

    def __init__(self, data=b"", *, _state=None):
        self._state = _REAL_SHA256(data) if _state is None else _state

    def update(self, data):
        self._state.update(data)

    def copy(self):
        return _CountingSha256(_state=self._state.copy())

    def digest(self):
        _CountingSha256.digests += 1
        return self._state.digest()


_REAL_SHA256 = hashlib.sha256


#: Widths on both sides of the IKNP column-byte boundaries (1, 8, 9, 64, 65
#: transfers give 1, 1, 2, 8, 9 bytes a column); the budget is linear in all.
@pytest.mark.parametrize("bit_width", [1, 7, 8, 9, 32, 63, 64, 65])
def test_one_comparison_costs_exactly_its_hash_budget(monkeypatch, bit_width):
    correlation = shared_correlation(KAPPA)
    circuit = build_greater_than_circuit(bit_width)
    assert circuit.and_gate_count == bit_width
    monkeypatch.setattr(hashlib, "sha256", _CountingSha256)
    monkeypatch.setattr(garbled, "_HG_BASE", _CountingSha256(b"halfgates"))
    monkeypatch.setattr(_CountingSha256, "digests", 0)

    instance = PreparedComparison(circuit, bit_width, correlation)
    built = _CountingSha256.digests
    assert instance.evaluate((1 << bit_width) - 1, 0).result is True
    evaluated = _CountingSha256.digests - built

    assert (built, evaluated) == budget(bit_width)
    assert budget(64) == PINNED_64 == (1_026, 129)
