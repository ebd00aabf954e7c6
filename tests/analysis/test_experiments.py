"""Tests for the experiment runners (small configurations for speed)."""

from types import SimpleNamespace

import pytest

from repro.analysis.experiments import (
    DEFAULT_SEED,
    _frame_fault_plan,
    _sampled_market_day,
    default_dataset,
    experiment_fig4_coalitions,
    experiment_fig5_runtime,
    experiment_fig6a_price,
    experiment_fig6b_utility,
    experiment_fig6c_cost,
    experiment_fig6d_grid_interaction,
    experiment_session_reuse,
    experiment_table1_bandwidth,
    run_plain_day,
    sample_market_windows,
    spread_market_windows,
)
from repro.chaos import PoolDrain
from repro.core.market import MarketCase
from repro.core.params import PAPER_PARAMETERS
from repro.core.pem import PlainTradingEngine
from repro.data import TraceConfig, generate_dataset


WINDOWS = 240  # a morning-to-midday slice keeps these tests fast


def test_fig4_experiment_small():
    series = experiment_fig4_coalitions(home_count=20, window_count=WINDOWS)
    assert len(series.windows) == WINDOWS
    assert series.max_seller_size > 0
    assert series.max_buyer_size == 20 or series.max_buyer_size > series.max_seller_size


def test_fig6a_experiment_small():
    series = experiment_fig6a_price(home_count=20, window_count=WINDOWS)
    assert series.count_at_retail() > 0  # early-morning no-market windows
    assert series.count_in_band() > 0


def test_fig6b_experiment_small():
    comparisons = experiment_fig6b_utility(
        preference_values=(20.0, 40.0), home_count=12, window_count=WINDOWS
    )
    assert set(comparisons) == {20.0, 40.0}
    for comparison in comparisons.values():
        assert comparison.mean_improvement >= -1e-9


def test_fig6c_experiment_small():
    comparisons = experiment_fig6c_cost(home_counts=(10, 20), window_count=WINDOWS)
    assert set(comparisons) == {10, 20}
    for comparison in comparisons.values():
        assert comparison.total_with_pem <= comparison.total_without_pem + 1e-9


def test_fig6d_experiment_small():
    comparison = experiment_fig6d_grid_interaction(home_count=20, window_count=WINDOWS)
    assert comparison.total_reduction_kwh >= 0


def test_sample_market_windows():
    dataset = generate_dataset(TraceConfig(home_count=16, window_count=400, seed=3))
    windows = sample_market_windows(dataset, home_count=16, sample_count=4)
    assert 0 < len(windows) <= 4
    assert windows == sorted(windows)


@pytest.mark.parametrize("count", [1, 3, 1000])
def test_sample_market_windows_picks_only_market_windows(count):
    dataset = generate_dataset(TraceConfig(home_count=16, window_count=400, seed=3))
    day = PlainTradingEngine(PAPER_PARAMETERS).run_day(dataset, home_count=16)
    eligible = [w.window for w in day.windows if w.case.value != "no_market"]
    windows = sample_market_windows(dataset, home_count=16, sample_count=count)
    assert len(windows) == min(count, len(eligible))
    assert set(windows) <= set(eligible)
    assert windows == sorted(set(windows))


def test_sample_market_windows_is_empty_without_a_market():
    dataset = generate_dataset(TraceConfig(home_count=1, window_count=40, seed=3))
    assert sample_market_windows(dataset, home_count=1, sample_count=4) == []


@pytest.mark.parametrize("count", [0, -2])
def test_sample_market_windows_rejects_non_positive_counts(count):
    dataset = generate_dataset(TraceConfig(home_count=4, window_count=4, seed=3))
    with pytest.raises(ValueError, match="sample_count"):
        sample_market_windows(dataset, home_count=4, sample_count=count)


def _day(cases):
    """A trading day reduced to what the window choice reads: index and case."""
    return SimpleNamespace(
        windows=[SimpleNamespace(window=i, case=case) for i, case in enumerate(cases)]
    )


#: Twelve windows, a market in every odd one: eligible 1, 3, 5, 7, 9, 11.
ALTERNATING = _day([MarketCase.NO_MARKET, MarketCase.GENERAL] * 5
                   + [MarketCase.NO_MARKET, MarketCase.EXTREME])


def test_spread_market_windows_skips_no_market_windows_and_spreads_evenly():
    assert spread_market_windows(ALTERNATING, 1) == [1]
    assert spread_market_windows(ALTERNATING, 3) == [1, 5, 9]
    assert spread_market_windows(ALTERNATING, 4) == [1, 3, 7, 9]


def test_spread_market_windows_returns_every_market_window_when_there_are_few():
    for count in (6, 7, 100):
        assert spread_market_windows(ALTERNATING, count) == [1, 3, 5, 7, 9, 11]
    assert spread_market_windows(_day([MarketCase.NO_MARKET] * 5), 3) == []


@pytest.mark.parametrize("count", [0, -2])
def test_spread_market_windows_rejects_non_positive_counts(count):
    with pytest.raises(ValueError, match="sample_count"):
        spread_market_windows(ALTERNATING, count)


def test_default_dataset_is_cached_however_its_arguments_are_spelled():
    first = default_dataset(300, WINDOWS)
    assert default_dataset(300, WINDOWS, DEFAULT_SEED) is first
    assert default_dataset(home_count=300, window_count=WINDOWS) is first


def test_frame_fault_plan_drains_the_first_sampled_window_only():
    plan = _frame_fault_plan(7, [3, 9])
    assert plan.seed == 7
    assert plan.pool_drains == (PoolDrain(window=3),)
    idle = _frame_fault_plan(7, [])
    assert idle.pool_drains == ()
    assert idle.drop_rate == plan.drop_rate and idle.corrupt_rate == plan.corrupt_rate


def test_run_plain_day_is_cached_however_its_arguments_are_spelled():
    first = run_plain_day(12, WINDOWS)
    assert run_plain_day(12, WINDOWS, DEFAULT_SEED) is first
    assert run_plain_day(home_count=12, window_count=WINDOWS) is first


def test_sampled_days_read_the_cached_plain_day():
    dataset, windows = _sampled_market_day(12, 4, WINDOWS, DEFAULT_SEED)
    assert dataset is default_dataset(300, WINDOWS, DEFAULT_SEED)
    assert windows == spread_market_windows(run_plain_day(12, WINDOWS), 4)
    assert windows == sample_market_windows(dataset, home_count=12, sample_count=4)


def test_fig5_runtime_experiment_tiny():
    observations = experiment_fig5_runtime(
        home_counts=(12,),
        key_sizes=(512, 2048),
        sample_count=2,
        crypto_key_size=128,
    )
    assert len(observations) == 2
    for obs in observations:
        assert obs.average_window_seconds > 0
        assert obs.total_day_seconds == pytest.approx(obs.average_window_seconds * 720)
    # Pipelined crypto: runtime is (nearly) key-size independent.
    by_key = {obs.key_size: obs.average_window_seconds for obs in observations}
    assert by_key[2048] / by_key[512] < 1.25


def test_session_reuse_experiment_tiny():
    obs = experiment_session_reuse(
        home_count=10, sample_count=3, worker_counts=(2,)
    )
    assert obs.windows_executed == 3
    assert obs.economics_identical
    assert obs.session_reuse_speedup > 1.5
    assert obs.simulated_day_seconds_day_scope < obs.simulated_day_seconds_window_scope
    assert obs.gc_offline_seconds_day_scope < obs.gc_offline_seconds_window_scope
    assert obs.sessions_established == 2  # once per session pair per day
    assert obs.sessions_reused == 2 * (obs.windows_executed - 1)
    assert obs.shard_invariance == {2: True}
    assert obs.socket_transport_identical


def test_table1_bandwidth_experiment_tiny():
    observations = experiment_table1_bandwidth(
        key_sizes=(512, 1024),
        window_spans=(300, 720),
        home_count=12,
        samples_per_key_size={512: 1, 1024: 1},
    )
    assert len(observations) == 4
    by_key = {}
    for obs in observations:
        assert obs.average_window_megabytes > 0
        by_key.setdefault(obs.key_size, obs.average_window_megabytes)
    # Doubling the key size increases the ciphertext traffic.  With only 12
    # homes the key-size-independent garbled-circuit/OT traffic dominates, so
    # the ratio sits well below the asymptotic ~2x observed at 200 homes
    # (see benchmarks/test_table1_bandwidth.py); here we only check the
    # direction of the effect.
    ratio = by_key[1024] / by_key[512]
    assert 1.05 < ratio < 2.5
