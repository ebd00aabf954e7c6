"""Unit tests for the synthetic Smart*-like trace generator."""

import math

import numpy as np
import pytest

from repro.data.profiles import ProfilePopulation
from repro.data.traces import (
    WINDOWS_PER_DAY,
    HomeTrace,
    TraceConfig,
    generate_dataset,
)


def test_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(home_count=0)
    with pytest.raises(ValueError):
        TraceConfig(window_count=0)
    with pytest.raises(ValueError):
        TraceConfig(cloud_variability=1.5)


def test_dataset_shape():
    dataset = generate_dataset(TraceConfig(home_count=12, window_count=100, seed=1))
    assert dataset.home_count == 12
    assert dataset.window_count == 100
    for home in dataset.homes:
        assert home.window_count == 100
        assert np.all(home.generation_kwh >= 0)
        assert np.all(home.load_kwh >= 0)


def test_generation_is_deterministic_for_seed():
    a = generate_dataset(TraceConfig(home_count=6, window_count=60, seed=42))
    b = generate_dataset(TraceConfig(home_count=6, window_count=60, seed=42))
    for home_a, home_b in zip(a.homes, b.homes):
        assert np.allclose(home_a.generation_kwh, home_b.generation_kwh)
        assert np.allclose(home_a.load_kwh, home_b.load_kwh)


def test_different_seeds_differ():
    a = generate_dataset(TraceConfig(home_count=6, window_count=60, seed=1))
    b = generate_dataset(TraceConfig(home_count=6, window_count=60, seed=2))
    assert not np.allclose(a.homes[0].load_kwh, b.homes[0].load_kwh)


def _total(dataset, series: str, window: int) -> float:
    """The neighbourhood's ``series`` (``"generation_kwh"`` / ``"load_kwh"``) in one window."""
    return float(sum(getattr(home, series)[window] for home in dataset.homes))


def test_no_generation_at_start_and_end_of_trading_day():
    """The paper's traces have ~zero PV output at 7 AM and 7 PM."""
    dataset = generate_dataset(TraceConfig(home_count=20, window_count=WINDOWS_PER_DAY, seed=3))
    last = WINDOWS_PER_DAY - 1
    assert _total(dataset, "generation_kwh", 0) < 0.05 * _total(dataset, "load_kwh", 0)
    assert _total(dataset, "generation_kwh", last) < 0.10 * _total(dataset, "load_kwh", last)


def test_midday_generation_peaks():
    dataset = generate_dataset(TraceConfig(home_count=20, window_count=WINDOWS_PER_DAY, seed=3))
    midday = _total(dataset, "generation_kwh", 360)  # 1:00 PM
    morning = _total(dataset, "generation_kwh", 30)
    assert midday > 5 * max(morning, 1e-9)


def test_homes_without_pv_never_generate():
    dataset = generate_dataset(TraceConfig(home_count=40, window_count=200, seed=9))
    for home in dataset.homes:
        if not home.profile.has_pv:
            assert np.allclose(home.generation_kwh, 0.0)


def test_cloud_variability_zero_gives_smooth_series():
    smooth = generate_dataset(
        TraceConfig(home_count=5, window_count=300, seed=10, cloud_variability=0.0)
    )
    cloudy = generate_dataset(
        TraceConfig(home_count=5, window_count=300, seed=10, cloud_variability=1.0)
    )
    # Clouds can only lower generation relative to the clear-sky baseline.
    assert sum(_total(cloudy, "generation_kwh", w) for w in range(300)) <= sum(
        _total(smooth, "generation_kwh", w) for w in range(300)
    ) + 1e-9


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1e-6])
@pytest.mark.parametrize("series", ["generation_kwh", "load_kwh"])
def test_home_trace_rejects_non_finite_and_negative_values(series, bad):
    home = generate_dataset(TraceConfig(home_count=2, window_count=12, seed=4)).homes[1]
    values = {"generation_kwh": home.generation_kwh.copy(), "load_kwh": home.load_kwh.copy()}
    values[series][5] = bad
    values[series][9] = bad
    with pytest.raises(ValueError, match=r"home 'home-001': .* window 5 is .*finite and non-negative"):
        HomeTrace(profile=home.profile, **values)


def test_home_trace_series_cannot_be_corrupted_after_the_check():
    """A NaN written into a validated trace used to take the home off the market."""
    dataset = generate_dataset(TraceConfig(home_count=3, window_count=12, seed=4))
    with pytest.raises(ValueError, match="read-only"):
        dataset.homes[1].load_kwh[5] = float("nan")
    assert all(np.isfinite(home.load_kwh).all() for home in dataset.homes)


@pytest.mark.parametrize(
    "population, message",
    [
        (ProfilePopulation(pv_capacity_range_kw=(math.inf, math.inf), pv_ownership_rate=1.0),
         r"generation in window 0 is nan"),
        # Finite profile parameters whose load overflows to +inf.
        (ProfilePopulation(base_load_range_kw=(1.7e308, 1.7e308), peak_load_range_kw=(1.7e308, 1.7e308)),
         r"load in window 0 is inf"),
        (ProfilePopulation(base_load_range_kw=(math.nan, math.nan)), r"load in window 0 is nan"),
    ],
)
def test_generate_dataset_rejects_non_finite_traces(population, message):
    config = TraceConfig(home_count=3, window_count=30, seed=4, population=population)
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError, match=message):
        generate_dataset(config)


def test_home_trace_stores_float64_without_copying():
    home = generate_dataset(TraceConfig(home_count=1, window_count=8, seed=4)).homes[0]
    ints = np.arange(8)
    trace = HomeTrace(profile=home.profile, generation_kwh=ints, load_kwh=home.load_kwh)
    assert trace.generation_kwh.dtype == np.float64 and trace.generation_kwh.tolist() == list(range(8))
    assert np.shares_memory(trace.load_kwh, home.load_kwh)
