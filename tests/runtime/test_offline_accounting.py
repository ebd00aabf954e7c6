"""Invariant regression suite for the offline/online accounting split.

Guards the properties every pool-backed accelerator (Paillier randomizer
pools *and* the garbled-comparison pool) must keep as the runtime shards
windows across workers:

* offline + online totals are **shard-invariant**: the same day run at
  workers=1, 2, 4 produces identical simulated clocks, on all four
  counters (``simulated_seconds``, ``offline_seconds``,
  ``gc_offline_seconds``) — certified end-to-end by
  ``RunReport.identical_to``;
* fallbacks are **counted, never silently charged**: a drained pool shows
  up in ``pool_fallbacks`` / ``gc_fallbacks`` while its cost lands on the
  online clock;
* accounting is a pure function of the warm/take sequence — independent of
  reservoir state and of which windows ran earlier in the process.

All assertions are on the **simulated** clock; the CI box has one core, so
wall-clock speedups are deliberately not asserted anywhere here.
"""

import random

import pytest

import helpers
from repro.core import PAPER_PARAMETERS
from repro.core.agent import AgentWindowState
from repro.core.coalition import form_coalitions
from repro.core.protocols import ProtocolConfig, ProtocolContext
from repro.crypto.gc_pool import ComparisonPool
from repro.net import CostModel, SimulatedNetwork


def state(agent_id: str, net: float, k: float = 150.0) -> AgentWindowState:
    return AgentWindowState(
        agent_id=agent_id,
        window=0,
        generation_kwh=max(net, 0.0),
        load_kwh=max(-net, 0.0),
        battery_kwh=0.0,
        battery_loss_coefficient=0.9,
        preference_k=k,
    )


@pytest.fixture(scope="module")
def serial_report():
    return helpers.tiny_market_serial_report()


# -- shard invariance of the simulated clocks -----------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_identical_to_certificate_across_worker_counts(serial_report, workers):
    market = helpers.tiny_market()
    report = market.engine().run_windows_report(
        market.dataset, market.windows, workers=workers
    )
    assert report.identical_to(serial_report)
    assert serial_report.identical_to(report)


@pytest.mark.parametrize("workers", [2, 4])
def test_offline_and_online_totals_shard_invariant(serial_report, workers):
    market = helpers.tiny_market()
    report = market.engine().run_windows_report(
        market.dataset, market.windows, workers=workers
    )
    # Explicit per-counter checks so a regression names the broken clock
    # instead of just failing the aggregate certificate.
    assert report.stats.simulated_seconds == serial_report.stats.simulated_seconds
    assert report.stats.offline_seconds == serial_report.stats.offline_seconds
    assert report.stats.gc_offline_seconds == serial_report.stats.gc_offline_seconds
    assert report.stats.pool_fallbacks == serial_report.stats.pool_fallbacks
    assert report.stats.gc_fallbacks == serial_report.stats.gc_fallbacks
    for a, b in zip(report.traces, serial_report.traces):
        assert a.offline_seconds == b.offline_seconds
        assert a.gc_offline_seconds == b.gc_offline_seconds


def test_market_windows_charge_both_offline_clocks(serial_report):
    market_traces = [
        t for t in serial_report.traces if t.result.clearing is not None
    ]
    assert market_traces, "the tiny market day must contain market windows"
    for trace in market_traces:
        # Paillier warm-up and comparison preparation both ran offline ...
        assert trace.offline_seconds > 0
        assert trace.gc_offline_seconds > 0
        # ... and covered the online demand exactly (no drained pools).
        assert trace.pool_fallback_count == 0
        assert trace.gc_fallback_count == 0
        assert trace.simulated_runtime_seconds > 0


def test_gc_offline_never_on_critical_path(serial_report):
    # The split is real: removing the gc offline clock from the stats must
    # not change the online clock (they are accumulated independently).
    total_online = sum(t.simulated_runtime_seconds for t in serial_report.traces)
    assert serial_report.stats.simulated_seconds == pytest.approx(total_online)
    assert (
        serial_report.stats.gc_offline_seconds > 0
    ), "market windows must have prepared comparisons offline"


def test_engine_reuse_keeps_window_accounting_deterministic():
    # Running extra windows first must not change any later window's
    # offline accounting: pools (both kinds) recycle at window boundaries.
    market = helpers.tiny_market()
    warm_engine = market.engine()
    warm_engine.run_windows(market.dataset, market.windows[:1])
    traces = warm_engine.run_windows(market.dataset, market.windows)
    baseline = helpers.tiny_market_serial_report().traces
    assert [t.offline_seconds for t in traces] == [t.offline_seconds for t in baseline]
    assert [t.gc_offline_seconds for t in traces] == [
        t.gc_offline_seconds for t in baseline
    ]
    assert [t.gc_fallback_count for t in traces] == [
        t.gc_fallback_count for t in baseline
    ]


# -- fallbacks are counted, never silently charged ------------------------------------


GENERAL_STATES = [
    state("s1", 0.08, k=160.0),
    state("s2", 0.12, k=220.0),
    state("s3", 0.05, k=140.0),
    state("b1", -0.30),
    state("b2", -0.25),
    state("b3", -0.10),
]


def _context(config):
    network = SimulatedNetwork(cost_model=CostModel.for_key_size(512))
    context = ProtocolContext(
        coalitions=form_coalitions(0, GENERAL_STATES),
        network=network,
        config=config,
        params=PAPER_PARAMETERS,
        rng=random.Random(5),
    )
    return context, network


def test_drained_comparison_pool_falls_back_counted_and_charged():
    from repro.core.protocols.market_evaluation import run_market_evaluation

    config = ProtocolConfig(
        key_size=helpers.TEST_KEY_SIZE,
        key_pool_size=2,
        seed=5,
        comparison_pool_headroom=0,  # nothing prepared -> must fall back
        ot_extension_kappa=helpers.TEST_KAPPA,
    )
    context, network = _context(config)
    assert network.stats.gc_fallbacks == 0
    online_before = network.stats.simulated_seconds
    result = run_market_evaluation(context)
    assert result.is_general_market is True
    # The fallback is visible ...
    assert network.stats.gc_fallbacks == 1
    (pool,) = context.keyring.comparison_pools
    assert pool.fallback_count == 1
    # ... and its classic-Yao cost landed on the online clock (public-key
    # OTs at 64 transfers dwarf the pooled evaluation's symmetric cost).
    model = network.cost_model
    gates = pool.and_gate_count
    classic = model.comparison_cost(gates, config.comparison_bits)
    pooled = model.comparison_cost(gates, config.comparison_bits, pooled=True)
    online_spent = network.stats.simulated_seconds - online_before
    assert online_spent >= classic
    assert classic > 3 * pooled  # the acceptance-criterion floor, at model level


def test_warmed_comparison_pool_avoids_fallback_and_charges_offline():
    from repro.core.protocols.market_evaluation import run_market_evaluation

    config = ProtocolConfig(
        key_size=helpers.TEST_KEY_SIZE,
        key_pool_size=2,
        seed=5,
        ot_extension_kappa=helpers.TEST_KAPPA,
    )
    context, network = _context(config)
    assert network.stats.gc_offline_seconds > 0  # preparation was charged
    run_market_evaluation(context)
    assert network.stats.gc_fallbacks == 0
    (pool,) = context.keyring.comparison_pools
    assert pool.fallback_count == 0
    assert pool.consumed == 1
    assert pool.sessions_started == 1


def test_paillier_fallbacks_still_counted():
    config = ProtocolConfig(
        key_size=helpers.TEST_KEY_SIZE, key_pool_size=2, seed=5, pool_headroom=0
    )
    context, network = _context(config)
    runtime = context.all_agents[0]
    context.encrypt(runtime.public_key, 7)
    assert network.stats.pool_fallbacks == 1


def test_accounting_independent_of_reservoir_state():
    # Two pools, one with pipeline-staged instances in its reservoir, one
    # cold: the accounted counters after an identical warm/take sequence
    # must match exactly.
    staged = ComparisonPool(8, kappa=helpers.TEST_KAPPA)
    cold = ComparisonPool(8, kappa=helpers.TEST_KAPPA)
    staged.reserve(0, 3)
    staged.claim_reservation(0)
    for pool in (staged, cold):
        pool.warm(2)
        assert pool.take() is not None
        pool.recycle()
        pool.warm(1)
        assert pool.take() is not None
        assert pool.take() is None  # drained -> fallback
    for attribute in ("produced", "consumed", "fallback_count", "sessions_started"):
        assert getattr(staged, attribute) == getattr(cold, attribute), attribute
