"""Tests for window pipelining (repro.runtime.pipeline + the cost model).

The pipeline's contract has three legs, each pinned here:

* **Reservation mechanics** — per-window reservations are one-shot,
  claim-idempotent, unaccounted (pure wall-clock staging), and isolated
  from the shared reservoir until their window claims them; the stage
  runs inline in ``advance``, so what it stages is reproducible.
* **Clock semantics** — :func:`repro.net.costmodel.pipelined_day_cost`
  charges ``offline_0 + sum(max(online_i, offline_i+1)) + online_last``;
  the properties below bound it against the serialized schedule.
* **Bit-identity** — a pipelined day is ``RunReport.identical_to`` the
  unpipelined day (including the ``pipeline_overlap_seconds`` counters,
  which are a pure function of the window given the day's anchor), across
  worker counts and under a seeded chaos plan.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from repro.core import PAPER_PARAMETERS
from repro.core.protocols import PrivateTradingEngine, ProtocolConfig
from repro.crypto.accel import RandomizerPool
from repro.crypto.gc_pool import ComparisonPool
from repro.net.costmodel import pipelined_day_cost, unpipelined_day_cost
from repro.runtime import ExecutionPlan, WindowPipeline

KEY_SIZE = helpers.TEST_KEY_SIZE


@pytest.fixture(scope="module")
def keypair():
    return helpers.shared_keypair(KEY_SIZE, 77)


@pytest.fixture(scope="module")
def day_dataset():
    return helpers.tiny_dataset()


def build_day_engine(fault_plan=None, pipeline_unused=None):
    return PrivateTradingEngine(
        params=PAPER_PARAMETERS,
        config=ProtocolConfig(
            key_size=KEY_SIZE,
            key_pool_size=4,
            seed=21,
            ot_extension_kappa=helpers.TEST_KAPPA,
            session_scope="day",
            fault_plan=fault_plan,
        ),
    )


# -- per-window reservations (RandomizerPool / ComparisonPool) ------------------------


def test_randomizer_reservation_is_window_tagged(keypair):
    pool = RandomizerPool(
        keypair.public_key, random.Random(1), private_key=keypair.private_key
    )
    assert pool.reserve(7, 3) == 3
    assert pool.reservation_available(7) == 3
    assert pool.reservation_available(8) == 0
    # Reserved values are invisible to the shared reservoir until claimed.
    assert pool.reservoir_available == 0
    assert pool.claim_reservation(7) == 3
    assert pool.reservoir_available == 3
    assert pool.reservation_available(7) == 0
    # Claiming is idempotent: a retried window cannot double-claim.
    assert pool.claim_reservation(7) == 0
    assert pool.reservoir_available == 3


def test_randomizer_reservation_accounting_untouched(keypair):
    pool = RandomizerPool(
        keypair.public_key, random.Random(2), private_key=keypair.private_key
    )
    pool.reserve(3, 4)
    pool.claim_reservation(3)
    # Staging is unaccounted wall-clock work.
    assert pool.produced == 0
    assert pool.fallback_count == 0
    # The warm that consumes it accounts as a cold warm-up.
    assert pool.warm(4) == 4
    assert pool.produced == 4
    assert pool.reservoir_available == 0


def test_randomizer_reservation_one_shot_invariant(keypair):
    pool = RandomizerPool(
        keypair.public_key, random.Random(3), private_key=keypair.private_key
    )
    pool.reserve(1, 3)
    pool.reserve(2, 2)
    pool.claim_reservation(2)
    pool.claim_reservation(1)
    pool.warm(5)
    handed_out = pool.take_many(5)
    assert len(set(handed_out)) == len(handed_out)


def test_comparison_reservation_round_trip():
    pool = helpers.small_comparison_pool(16)
    assert pool.reserve(5, 2) == 2
    assert pool.reservation_available(5) == 2
    assert pool.reservoir_available == 0
    assert pool.produced == 0 and pool.sessions_started == 0
    assert pool.claim_reservation(5) == 2
    assert pool.claim_reservation(5) == 0
    assert pool.reservoir_available == 2
    # The warm pops a staged instance but accounts as a cold warm-up, and
    # consuming it still evaluates correctly.
    assert pool.warm(1) == 1
    assert (pool.produced, pool.sessions_started) == (1, 1)
    assert pool.reservoir_available == 1
    instance = pool.take()
    assert instance.evaluate(9, 4).result is True


def test_reserve_zero_or_negative_is_a_noop(keypair):
    pool = RandomizerPool(
        keypair.public_key, random.Random(4), private_key=keypair.private_key
    )
    assert pool.reserve(1, 0) == 0
    assert pool.reserve(1, -3) == 0
    assert pool.reservation_available(1) == 0


def test_randomizer_staging_leaves_protocol_rng_untouched(keypair):
    rng = random.Random(5)
    pool = RandomizerPool(keypair.public_key, rng, private_key=keypair.private_key)
    before = rng.getstate()
    pool.reserve(1, 3)
    pool.claim_reservation(1)
    pool.warm(3)  # pops the staged values: no protocol draw either
    assert rng.getstate() == before


def test_comparison_staging_leaves_protocol_rng_untouched():
    rng = random.Random(6)
    pool = ComparisonPool(16, kappa=helpers.TEST_KAPPA, rng=rng)
    before = rng.getstate()
    assert pool.reserve(1, 2) == 2
    assert rng.getstate() == before


def test_comparison_warm_never_consumes_a_reservation():
    pool = helpers.small_comparison_pool(16)
    pool.reserve(20, 2)
    staged = list(pool._reservations[20])
    # Window 10 (and a retry of it) warms and takes around the reservation.
    handed_out = []
    for _attempt in range(2):
        pool.recycle(close_session=False)
        assert pool.warm(2) == 2
        handed_out.append(pool.take())
        assert pool.reservation_available(20) == 2
    assert {id(i) for i in handed_out}.isdisjoint(id(i) for i in staged)
    assert pool.claim_reservation(20) == 2
    assert list(pool._reservoir)[-2:] == staged


# -- pipelined/unpipelined day cost ---------------------------------------------------


phases_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    max_size=12,
)


def test_day_cost_degenerate_cases():
    assert pipelined_day_cost([]) == 0.0
    assert unpipelined_day_cost([]) == 0.0
    # One window has nothing to overlap with: both schedules coincide.
    assert pipelined_day_cost([(2.0, 3.0)]) == 5.0
    assert unpipelined_day_cost([(2.0, 3.0)]) == 5.0


def test_day_cost_worked_example():
    # offline_0 + max(on_0, off_1) + max(on_1, off_2) + on_2
    phases = [(1.0, 4.0), (2.0, 1.0), (5.0, 2.0)]
    assert unpipelined_day_cost(phases) == 15.0
    assert pipelined_day_cost(phases) == 1.0 + max(4.0, 2.0) + max(1.0, 5.0) + 2.0


@settings(max_examples=200, deadline=None)
@given(phases=phases_strategy)
def test_pipelined_cost_bounded_by_serial_schedule(phases):
    pipelined = pipelined_day_cost(phases)
    serial = unpipelined_day_cost(phases)
    assert pipelined <= serial + 1e-9
    # The pipeline cannot beat either phase's own critical path.
    assert pipelined >= sum(off for off, _ in phases[:1]) + sum(
        on for _, on in phases
    ) - 1e-9 or not phases
    assert pipelined >= sum(off for off, _ in phases) - 1e-9 or not phases


@settings(max_examples=200, deadline=None)
@given(phases=phases_strategy)
def test_pipelined_cost_hides_at_most_non_anchor_offline(phases):
    hidden = unpipelined_day_cost(phases) - pipelined_day_cost(phases)
    eligible = sum(off for off, _ in phases[1:])
    assert -1e-9 <= hidden <= eligible + 1e-9


# -- WindowPipeline stage -------------------------------------------------------------


def test_window_pipeline_stages_and_claims(day_dataset):
    engine = build_day_engine()
    engine.keyring.keypair_for("home-0")
    windows = (10, 20, 30)
    pipeline = WindowPipeline(
        engine.keyring, windows, randomizer_target=4, comparison_target=0
    )
    (pool,) = engine.keyring.randomizer_pools

    assert pipeline.advance(10) == 0  # nothing staged for the anchor
    # advance(10) returned with 20's material already staged.
    assert pool.reservation_available(20) == 4
    assert pipeline.total_reserved == 4

    claimed = pipeline.advance(20)
    assert claimed == 4
    assert pool.reservoir_available == 4
    assert pool.reservation_available(20) == 0
    # 30's staging saw a full reservoir: deficit 0, nothing staged.
    assert pool.reservation_available(30) == 0
    assert pipeline.advance(30) == 0
    assert (pipeline.total_reserved, pipeline.total_claimed) == (4, 4)


def test_retried_window_leaves_successor_reservation_intact():
    """A supervisor retry of W runs after W+1 is staged and cannot eat it."""
    engine = build_day_engine()
    engine.keyring.keypair_for("home-0")
    pipeline = WindowPipeline(
        engine.keyring, (10, 20, 30), randomizer_target=4, comparison_target=0
    )
    (pool,) = engine.keyring.randomizer_pools

    pipeline.advance(10)
    staged = list(pool._reservations[20])
    assert len(staged) == 4
    # Window 10 warms its pools twice, as a supervisor retry would: each
    # attempt restarts from the window boundary, so the retry pops what
    # the failed attempt left unused — and never the reservation.
    handed_out = []
    for _attempt in range(2):
        engine.keyring.recycle_pools(keep_sessions=True)
        assert pool.warm(6) == 6
        handed_out += pool.take_many(4)
        assert pool.reservation_available(20) == 4
    assert len(set(handed_out)) == len(handed_out) == 8
    assert set(handed_out).isdisjoint(staged)

    reservoir_before = pool.reservoir_available
    assert pipeline.advance(20) == 4
    assert pool.reservoir_available == reservoir_before + 4
    assert list(pool._reservoir)[-4:] == staged
    # Window 20's warm pops exactly the staged values, accounted cold.
    engine.keyring.recycle_pools(keep_sessions=True)
    produced_before = pool.produced
    assert pool.warm(4) == 4
    assert pool.produced == produced_before + 4
    assert sorted(pool.take_many(4)) == sorted(staged)


def test_window_pipeline_last_window_stages_nothing(day_dataset):
    engine = build_day_engine()
    engine.keyring.keypair_for("home-0")
    pipeline = WindowPipeline(engine.keyring, (5,), randomizer_target=4)
    assert pipeline.advance(5) == 0
    assert pipeline.total_reserved == 0


def test_window_pipeline_stages_comparison_pools():
    engine = build_day_engine()
    engine.keyring.keypair_for("home-0")
    comparison_pool = engine.keyring.comparison_pool(16)
    pipeline = WindowPipeline(
        engine.keyring, (10, 20), randomizer_target=4, comparison_target=2
    )
    (randomizer_pool,) = engine.keyring.randomizer_pools

    pipeline.advance(10)
    assert randomizer_pool.reservation_available(20) == 4
    assert comparison_pool.reservation_available(20) == 2
    assert pipeline.total_reserved == 4 + 2  # obfuscators + prepared comparisons
    # Staging is unaccounted wall-clock work, like the Paillier staging.
    assert comparison_pool.produced == 0
    assert comparison_pool.sessions_started == 0

    assert pipeline.advance(20) == 6
    # A warm now pops the claimed instances but accounts as a cold warm-up.
    assert comparison_pool.warm(2) == 2
    assert comparison_pool.produced == 2
    assert comparison_pool.sessions_started == 1
    assert comparison_pool.reservoir_available == 0


def test_window_pipeline_stages_only_the_deficit():
    engine = build_day_engine()
    engine.keyring.keypair_for("home-0")
    (pool,) = engine.keyring.randomizer_pools
    pool.reserve(0, 3)
    pool.claim_reservation(0)
    pipeline = WindowPipeline(
        engine.keyring, (10, 20), randomizer_target=4, comparison_target=0
    )
    pipeline.advance(10)
    # Three values already wait in the reservoir: one more reaches the target.
    assert pool.reservation_available(20) == 1
    assert pipeline.total_reserved == 1


def test_window_pipeline_stages_pools_created_after_a_stage():
    engine = build_day_engine()
    pipeline = WindowPipeline(
        engine.keyring, (10, 20, 30), randomizer_target=4, comparison_target=0
    )
    assert pipeline.advance(10) == 0
    assert pipeline.total_reserved == 0  # no pool existed to stage
    engine.keyring.keypair_for("home-0")
    (pool,) = engine.keyring.randomizer_pools
    # The pool created during window 10 is staged one window later.
    assert pipeline.advance(20) == 0
    assert pool.reservation_available(30) == 4
    assert pipeline.advance(30) == 4


def test_window_pipeline_orders_and_dedupes_windows():
    engine = build_day_engine()
    engine.keyring.keypair_for("home-0")
    pipeline = WindowPipeline(
        engine.keyring, [30, 10, 20, 10], randomizer_target=2, comparison_target=0
    )
    (pool,) = engine.keyring.randomizer_pools
    pipeline.advance(10)
    # The successor of 10 is 20 in execution order, whatever the input order.
    assert pool.reservation_available(20) == 2
    assert pool.reservation_available(30) == 0


def test_window_pipeline_negative_targets_stage_nothing():
    engine = build_day_engine()
    engine.keyring.keypair_for("home-0")
    engine.keyring.comparison_pool(16)
    pipeline = WindowPipeline(
        engine.keyring, (10, 20), randomizer_target=-4, comparison_target=-1
    )
    pipeline.advance(10)
    assert pipeline.total_reserved == 0
    pools = engine.keyring.offline_pools
    assert all(pool.reservation_available(20) == 0 for pool in pools)


# -- plan / runner wiring -------------------------------------------------------------


def test_plan_carries_pipeline_flag():
    plan = ExecutionPlan.for_windows([1, 2, 3], 2, pipeline=True)
    assert plan.pipeline
    assert "pipelined offline" in plan.describe()
    assert "pipelined" not in ExecutionPlan.for_windows([1, 2, 3], 2).describe()


def test_pipeline_requires_day_scope(day_dataset):
    engine = helpers.tiny_market().engine()  # window scope
    with pytest.raises(ValueError, match="session_scope='day'"):
        engine.run_windows_report(
            day_dataset,
            helpers.TINY_MARKET_WINDOWS[:2],
            workers=1,
            pipeline=True,
        )


# -- bit-identity certificates --------------------------------------------------------


def test_pipelined_day_identical_to_unpipelined(day_dataset):
    windows = helpers.TINY_MARKET_WINDOWS[:3]
    baseline = build_day_engine().run_windows_report(
        day_dataset, windows, workers=1
    )
    for workers in (1, 2):
        piped = build_day_engine().run_windows_report(
            day_dataset, windows, workers=workers, pipeline=True
        )
        assert baseline.identical_to(piped), f"diverged at workers={workers}"
    # The pipelined clock actually hides offline work on this day, and the
    # aggregates are trace-pure (identical whether or not the run pipelined).
    assert baseline.pipelined_simulated_seconds < baseline.unpipelined_simulated_seconds
    piped_single = build_day_engine().run_windows_report(
        day_dataset, windows, workers=1, pipeline=True
    )
    assert (
        piped_single.pipelined_simulated_seconds
        == baseline.pipelined_simulated_seconds
    )


def test_pipeline_reserved_is_reproducible(day_dataset):
    """Staging runs inline, so identical pipelined runs stage identically."""
    # Six windows give each two-worker stride shard a non-anchor window
    # whose successor it can stage (a shard's first window finds no pools).
    windows = helpers.TINY_MARKET_WINDOWS + (450, 480)
    for workers in (1, 2):
        first, second = (
            build_day_engine().run_windows_report(
                day_dataset, windows, workers=workers, pipeline=True
            )
            for _ in range(2)
        )
        assert first.pipeline_reserved == second.pipeline_reserved > 0, workers


@settings(max_examples=4, deadline=None)
@given(
    subset=st.sets(
        st.sampled_from(helpers.TINY_MARKET_WINDOWS), min_size=2, max_size=3
    ),
    workers=st.integers(min_value=1, max_value=2),
)
def test_random_schedules_pipelined_identical(day_dataset, subset, workers):
    windows = sorted(subset)
    baseline = build_day_engine().run_windows_report(
        day_dataset, windows, workers=1
    )
    piped = build_day_engine().run_windows_report(
        day_dataset, windows, workers=workers, pipeline=True
    )
    assert baseline.identical_to(piped)


def test_overlap_counter_is_scope_and_anchor_pure(day_dataset):
    windows = helpers.TINY_MARKET_WINDOWS[:3]
    day = build_day_engine().run_windows_report(day_dataset, windows, workers=1)
    anchor = min(windows)
    expected_total = 0.0
    for trace in day.traces:
        if trace.result.window == anchor:
            # The anchor's offline phase has no predecessor to hide under.
            assert trace.pipeline_overlap_seconds == 0.0
        else:
            assert trace.pipeline_overlap_seconds == (
                trace.offline_seconds + trace.gc_offline_seconds
            )
        expected_total += trace.pipeline_overlap_seconds
    assert day.stats.pipeline_overlap_seconds == expected_total

    window_scope = helpers.tiny_market().engine().run_windows_report(
        day_dataset, windows, workers=1
    )
    assert all(t.pipeline_overlap_seconds == 0.0 for t in window_scope.traces)
    assert window_scope.stats.pipeline_overlap_seconds == 0.0


def test_chaos_pipelined_day_recovers_identical(day_dataset):
    """A retried window must not consume its successor's staged material."""
    from repro.chaos import FaultPlan, PoolDrain

    windows = helpers.TINY_MARKET_WINDOWS[:3]
    baseline = build_day_engine().run_windows_report(
        day_dataset, windows, workers=1
    )
    plan = FaultPlan(
        seed=20,
        drop_rate=0.01,
        reorder_rate=0.005,
        duplicate_rate=0.005,
        corrupt_rate=0.01,
        max_faults_per_window=2,
        max_attempts=4,
        pool_drains=(PoolDrain(window=windows[0]),),
    )
    chaos = build_day_engine(fault_plan=plan).run_windows_report(
        day_dataset, windows, workers=2, pipeline=True
    )
    assert chaos.incidents, "the fault plan injected nothing"
    assert all(incident.recovered for incident in chaos.incidents)
    assert chaos.identical_to(baseline, include_incidents=False)
