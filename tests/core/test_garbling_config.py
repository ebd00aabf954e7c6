"""``ProtocolConfig.garbling_scheme``: one accepted value, checked at construction.

The field names the only garbling scheme (free-XOR + half-gates).  It used
to accept any string: a misspelt value constructed fine and then failed the
first market window with ``GarblingError`` (pooled comparisons), or was
silently ignored (``use_comparison_pool=False`` garbled inline under a
different scheme whatever the field held).  Now any other value is a
``ValueError`` before a window runs, and both comparison paths garble the
same way.
"""

import dataclasses

import pytest

from repro.core import PAPER_PARAMETERS
from repro.core.protocols import PrivateTradingEngine, ProtocolConfig
from repro.crypto import garbled, gc_pool
from repro.data import TraceConfig, generate_dataset

#: Market windows of the 8-home day below (four distinct coalition shapes).
WINDOWS = (155, 245, 334, 423)


@pytest.mark.parametrize(
    "value", ["classic", "half-gates", "HalfGates", "halfgates ", "", "free-xor"]
)
def test_any_other_scheme_is_rejected_at_construction(value):
    with pytest.raises(ValueError, match="the only scheme is 'halfgates'"):
        ProtocolConfig(key_size=128, garbling_scheme=value)
    with pytest.raises(ValueError):
        dataclasses.replace(ProtocolConfig(key_size=128), garbling_scheme=value)


def test_halfgates_is_the_default_and_accepted():
    assert ProtocolConfig().garbling_scheme == "halfgates"
    assert ProtocolConfig(garbling_scheme="halfgates") == ProtocolConfig()


@pytest.fixture(scope="module")
def day():
    return generate_dataset(TraceConfig(home_count=8, window_count=720, seed=2020))


def _run(day, use_comparison_pool):
    engine = PrivateTradingEngine(
        params=PAPER_PARAMETERS,
        config=ProtocolConfig(
            key_size=128, key_pool_size=4, use_comparison_pool=use_comparison_pool
        ),
    )
    return engine.run_windows_report(day, list(WINDOWS), workers=1)


@pytest.mark.parametrize("use_comparison_pool", [True, False])
def test_pooled_and_inline_comparisons_garble_the_same_circuit(
    monkeypatch, day, use_comparison_pool
):
    """Both paths reach the one garbler with the 64-AND comparator."""
    garbled_sizes = []
    real = garbled.garble_circuit

    def recording_garble(circuit, rng=None):
        out = real(circuit, rng=rng)
        garbled_sizes.append((circuit.and_gate_count, out.garbled.serialized_size()))
        return out

    # The pool imports the garbler by name; the inline protocol reads it
    # from the module it lives in.
    monkeypatch.setattr(gc_pool, "garble_circuit", recording_garble)
    monkeypatch.setattr(garbled, "garble_circuit", recording_garble)
    report = _run(day, use_comparison_pool)
    assert len(report.traces) == len(WINDOWS)
    assert garbled_sizes
    assert set(garbled_sizes) == {(64, 2_624)}
    assert report.stats.gc_fallbacks == 0


def test_pooled_and_inline_days_are_economically_identical(day):
    pooled = _run(day, use_comparison_pool=True)
    inline = _run(day, use_comparison_pool=False)
    assert len(pooled.traces) == len(inline.traces) == len(WINDOWS)
    for a, b in zip(pooled.traces, inline.traces):
        assert a.result.economically_equal(b.result)
