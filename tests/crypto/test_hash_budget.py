"""The SHA-256 budget of one prepared comparison — a count, not a timing.

``docs/ARCHITECTURE.md`` §4.5 argues from the number of hashes a 64-bit
comparator at κ = 128 costs.  This pins that number exactly, per phase and
per scheme, so a later change cannot add a hash (or drop one of the two
simulated OT parties' hashes) unnoticed.  Finalized digests are counted,
not constructor calls: half-gates hashes start from a copied pre-absorbed
state.
"""

import hashlib

import pytest

from helpers import shared_correlation
from repro.crypto import garbled
from repro.crypto.circuits import build_greater_than_circuit
from repro.crypto.gc_pool import PreparedComparison

BIT_WIDTH = 64
KAPPA = 128

#: Around the garbling itself, both schemes pay the same OT extension:
#: 3 x κ PRG columns, 3 x 64 pads of two hashes each.
OT_EXTENSION = 3 * KAPPA + 3 * BIT_WIDTH * 2

BINARY_GATES = 253  # 64 + 3 * 63: the comparator's AND + XOR + OR gates
AND_GATES = 190  # 64 + 2 * 63: AND + OR, i.e. the ANDs of the lowered circuit

#: scheme -> (digests to build, digests to evaluate).  Building also hashes
#: both labels of the one output wire; evaluating hashes the active one.
BUDGET = {
    "classic": (4 * BINARY_GATES + OT_EXTENSION + 2, BINARY_GATES + 1),
    "halfgates": (4 * AND_GATES + OT_EXTENSION + 2, 2 * AND_GATES + 1),
}


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


@pytest.mark.parametrize("scheme", sorted(BUDGET))
def test_one_comparison_costs_exactly_its_hash_budget(monkeypatch, scheme):
    correlation = shared_correlation(KAPPA)
    circuit = build_greater_than_circuit(BIT_WIDTH)
    assert (circuit.program.binary_gate_count, circuit.and_gate_count) == (BINARY_GATES, AND_GATES)
    monkeypatch.setattr(hashlib, "sha256", _CountingSha256)
    monkeypatch.setattr(garbled, "_HG_BASE", _CountingSha256(b"halfgates"))
    monkeypatch.setattr(_CountingSha256, "digests", 0)

    instance = PreparedComparison(circuit, BIT_WIDTH, correlation, scheme=scheme)
    built = _CountingSha256.digests
    assert instance.evaluate(2**63 + 5, 123).result is True
    evaluated = _CountingSha256.digests - built

    assert (built, evaluated) == BUDGET[scheme]
    assert BUDGET["classic"] == (1_782, 254) and sum(BUDGET["halfgates"]) == 1_911
