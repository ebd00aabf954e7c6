"""Determinism tests for sharded window execution.

The acceptance property of the runtime subsystem: ``run_windows`` with
``workers=N`` must produce bit-identical ``WindowResult``s and merged
``TrafficStats`` totals compared with the serial run over the same seeded
day — floats compared with ``==``, not ``approx``.
"""

import pytest

import helpers
from repro.core.protocols import ProtocolConfig

KEY_SIZE = helpers.TEST_KEY_SIZE
WINDOWS = list(helpers.TINY_MARKET_WINDOWS)


@pytest.fixture(scope="module")
def day_dataset():
    # The canonical tiny trading day, cached for the whole session and
    # shared with test_offline_accounting.
    return helpers.tiny_dataset()


def build_engine():
    return helpers.tiny_market().engine()


@pytest.fixture(scope="module")
def serial_report():
    # Session-cached serial baseline (read-only); see tests/helpers.py.
    return helpers.tiny_market_serial_report()


def assert_reports_identical(serial, parallel):
    assert len(serial.traces) == len(parallel.traces)
    for a, b in zip(serial.traces, parallel.traces):
        assert a.result == b.result
        assert a.bandwidth_bytes == b.bandwidth_bytes
        assert a.protocol_bandwidth_bytes == b.protocol_bandwidth_bytes
        assert a.simulated_runtime_seconds == b.simulated_runtime_seconds
        assert a.offline_seconds == b.offline_seconds
        assert a.gc_offline_seconds == b.gc_offline_seconds
        assert a.pool_fallback_count == b.pool_fallback_count
        assert a.gc_fallback_count == b.gc_fallback_count
        assert a.market_evaluation_leader_ids == b.market_evaluation_leader_ids
        assert a.pricing_leader_id == b.pricing_leader_id
        assert a.ratio_holder_id == b.ratio_holder_id
    s, p = serial.stats, parallel.stats
    assert s.total_messages == p.total_messages
    assert s.total_bytes == p.total_bytes
    assert dict(s.bytes_by_kind) == dict(p.bytes_by_kind)
    assert s.simulated_seconds == p.simulated_seconds
    assert s.offline_seconds == p.offline_seconds
    assert s.gc_offline_seconds == p.gc_offline_seconds
    assert s.pool_fallbacks == p.pool_fallbacks
    assert s.gc_fallbacks == p.gc_fallbacks
    assert s.snapshot() == p.snapshot()


def test_fixture_day_actually_trades(serial_report):
    # The determinism assertions are vacuous unless real protocol windows ran.
    assert any(t.result.clearing is not None for t in serial_report.traces)
    assert serial_report.stats.total_bytes > 0
    assert serial_report.stats.simulated_seconds > 0


def test_two_workers_bit_identical(day_dataset, serial_report):
    parallel = build_engine().run_windows_report(day_dataset, WINDOWS, workers=2)
    assert parallel.plan.workers == 2
    assert_reports_identical(serial_report, parallel)


def test_contiguous_sharding_bit_identical(day_dataset, serial_report):
    parallel = build_engine().run_windows_report(
        day_dataset, WINDOWS, workers=2, shard_strategy="contiguous"
    )
    assert parallel.plan.strategy == "contiguous"
    assert_reports_identical(serial_report, parallel)


def test_run_windows_workers_matches_serial_traces(day_dataset, serial_report):
    traces = build_engine().run_windows(day_dataset, WINDOWS, workers=2)
    assert [t.result for t in traces] == [t.result for t in serial_report.traces]
    assert [t.offline_seconds for t in traces] == [
        t.offline_seconds for t in serial_report.traces
    ]


def test_legacy_serial_path_unchanged(day_dataset, serial_report):
    # workers=1 takes the direct in-process path; it must equal the report
    # path exactly (the runner adds no divergence).
    traces = build_engine().run_windows(day_dataset, WINDOWS)
    assert [t.result for t in traces] == [t.result for t in serial_report.traces]


def test_engine_reuse_is_window_deterministic(day_dataset, serial_report):
    # Running other windows first must not perturb later windows: pool
    # state is recycled at every window boundary and key material is
    # identity-derived, so a warm engine equals a cold one.
    engine = build_engine()
    engine.run_windows(day_dataset, WINDOWS[:1])
    traces = engine.run_windows(day_dataset, WINDOWS)
    assert [t.result for t in traces] == [t.result for t in serial_report.traces]
    assert [t.offline_seconds for t in traces] == [
        t.offline_seconds for t in serial_report.traces
    ]


def test_simulated_day_speedup_near_linear(day_dataset, serial_report):
    parallel = build_engine().run_windows_report(day_dataset, WINDOWS, workers=2)
    assert parallel.serial_simulated_seconds == pytest.approx(
        sum(t.simulated_runtime_seconds for t in serial_report.traces)
    )
    # Windows are independent: the sharded day's simulated runtime is the
    # slowest shard, which with 2 balanced shards is well under serial.
    assert parallel.parallel_simulated_seconds < parallel.serial_simulated_seconds
    assert parallel.simulated_speedup > 1.5
    per_shard = parallel.shard_simulated_seconds()
    assert len(per_shard) == 2
    assert max(per_shard) == parallel.parallel_simulated_seconds


def test_workers_clamped_to_window_count(day_dataset, serial_report):
    parallel = build_engine().run_windows_report(
        day_dataset, WINDOWS, workers=len(WINDOWS) + 5
    )
    assert parallel.plan.workers == len(WINDOWS)
    assert_reports_identical(serial_report, parallel)


def test_empty_window_selection(day_dataset):
    report = build_engine().run_windows_report(day_dataset, [], workers=4)
    assert report.traces == []
    assert report.stats.total_bytes == 0
    assert build_engine().run_windows(day_dataset, [], workers=4) == []


def test_pool_randomizers_unique_across_worker_keyrings():
    # Two fresh keyrings model two worker processes.  Keys must coincide
    # (identity-derived), but obfuscators must NOT: a derived randomizer
    # stream would restart identically in every worker and hand the same
    # r^n to two ciphertexts across shards, linking them (one-shot breach).
    from repro.core.protocols.context import KeyRing

    config = ProtocolConfig(key_size=KEY_SIZE, key_pool_size=2, seed=21)
    ring_a, ring_b = KeyRing(config), KeyRing(config)
    key_a = ring_a.keypair_for("home-0")
    key_b = ring_b.keypair_for("home-0")
    assert key_a.public_key == key_b.public_key

    pool_a = ring_a.randomizer_pool(key_a.public_key)
    pool_b = ring_b.randomizer_pool(key_b.public_key)
    pool_a.warm(8)
    pool_b.warm(8)
    assert set(pool_a.take_many(8)).isdisjoint(pool_b.take_many(8))


def test_run_day_workers_matches_serial(day_dataset):
    serial_day = build_engine().run_day(day_dataset, windows=WINDOWS[:2])
    parallel_day = build_engine().run_day(day_dataset, windows=WINDOWS[:2], workers=2)
    assert serial_day.windows == parallel_day.windows
