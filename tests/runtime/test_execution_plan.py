"""Tests for the window-sharding ExecutionPlan."""

import pytest

from repro.runtime import ExecutionPlan


def test_stride_plan_partitions_windows():
    plan = ExecutionPlan.for_windows(range(10), 3)
    assert plan.strategy == "stride"
    assert plan.workers == 3
    assert plan.shards == ((0, 3, 6, 9), (1, 4, 7), (2, 5, 8))
    assert plan.windows == tuple(range(10))
    assert plan.window_count == 10


def test_contiguous_plan_partitions_windows():
    plan = ExecutionPlan.for_windows(range(10), 3, strategy="contiguous")
    assert plan.shards == ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert plan.windows == tuple(range(10))


def test_contiguous_plan_honors_worker_count():
    # Regression: ceil-sized blocks used to yield fewer shards than asked.
    plan = ExecutionPlan.for_windows(range(8), 5, strategy="contiguous")
    assert plan.workers == 5
    assert tuple(len(s) for s in plan.shards) == (2, 2, 2, 1, 1)
    assert plan.windows == tuple(range(8))


def test_plan_collapses_duplicates_and_sorts():
    plan = ExecutionPlan.for_windows([7, 3, 3, 11, 7], 2)
    assert plan.windows == (3, 7, 11)
    assert plan.window_count == 3


def test_worker_count_clamped_to_window_count():
    plan = ExecutionPlan.for_windows([4, 5], 8)
    assert plan.workers == 2
    assert all(len(shard) == 1 for shard in plan.shards)
    assert ExecutionPlan.for_windows([4, 5], 0).workers == 1


def test_empty_selection_yields_empty_plan():
    plan = ExecutionPlan.for_windows([], 4)
    assert plan.workers == 0
    assert plan.windows == ()


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        ExecutionPlan.for_windows(range(4), 2, strategy="zigzag")


def test_overlapping_shards_rejected():
    with pytest.raises(ValueError):
        ExecutionPlan(shards=((1, 2), (2, 3)))


def test_unsorted_and_empty_shards_rejected():
    with pytest.raises(ValueError):
        ExecutionPlan(shards=((2, 1),))
    with pytest.raises(ValueError):
        ExecutionPlan(shards=((1,), ()))


def test_describe_mentions_sizes():
    text = ExecutionPlan.for_windows(range(5), 2).describe()
    assert "5 windows" in text and "2 worker(s)" in text


# ---------------------------------------------------------------------------
# Edge-case audit (PR 9): every corner of __post_init__ / for_windows pinned.
# ---------------------------------------------------------------------------


def test_direct_construction_rejects_unknown_strategy():
    # Regression: only for_windows used to validate the strategy, so a
    # directly-built (or unpickled) plan could carry a typo silently.
    with pytest.raises(ValueError):
        ExecutionPlan(shards=((0, 1),), strategy="zigzag")


def test_bool_window_indices_rejected():
    # Regression: bool is a subclass of int, and set() collapses True
    # with 1 — a boolean window index is always a caller bug.
    with pytest.raises(ValueError):
        ExecutionPlan(shards=((True,),))
    with pytest.raises(ValueError):
        ExecutionPlan.for_windows([True, 2], 1)


def test_zero_windows_plan_is_inert():
    plan = ExecutionPlan.for_windows([], 4, pipeline=True)
    assert plan.workers == 0
    assert plan.window_count == 0
    assert plan.windows == ()
    assert plan.pipeline is True  # the flag survives even an empty plan
    assert "0 windows" in plan.describe()


def test_workers_above_window_count_clamp_for_both_strategies():
    for strategy in ("stride", "contiguous"):
        plan = ExecutionPlan.for_windows(range(3), 9, strategy=strategy)
        assert plan.workers == 3
        assert tuple(len(shard) for shard in plan.shards) == (1, 1, 1)
        assert plan.windows == (0, 1, 2)


def test_stride_and_contiguous_identical_at_one_worker():
    windows = [9, 2, 5, 7, 0]
    stride = ExecutionPlan.for_windows(windows, 1, strategy="stride")
    contiguous = ExecutionPlan.for_windows(windows, 1, strategy="contiguous")
    assert stride.shards == contiguous.shards == ((0, 2, 5, 7, 9),)


def test_pipeline_flag_preserved_by_for_windows():
    plan = ExecutionPlan.for_windows(range(4), 2, pipeline=True)
    assert plan.pipeline is True
    assert "pipelined" in plan.describe()
    assert ExecutionPlan.for_windows(range(4), 2).pipeline is False


def test_negative_window_index_rejected():
    with pytest.raises(ValueError):
        ExecutionPlan(shards=((-1, 0),))
