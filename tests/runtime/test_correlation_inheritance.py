"""Establish once, fork after: workers inherit the base-OT correlation.

``ParallelRunner.run`` makes sure the process-wide IKNP correlation exists
*before* it fans a multi-shard plan out, so every forked worker — a first
one or a chaos-respawned replacement — finds it in the inherited
``_CORRELATION_CACHE`` instead of re-running ``kappa`` public-key base OTs.
These tests count or poison ``establish_correlation`` (forked children
inherit the patch) to prove the inheritance is real, and pin what must
*not* cross the fork: every worker's rebuilt engine starts with empty pools.
"""

import hashlib
import multiprocessing
from dataclasses import replace

import pytest

import helpers
from repro.chaos import FaultPlan
from repro.crypto import otext
from repro.runtime import runner

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="inheritance through the correlation cache needs the fork start method",
)

POISON = "base OTs re-run: the correlation was not inherited"


def _poison(*args, **kwargs):
    raise RuntimeError(POISON)


def _market():
    return helpers.tiny_market(session_scope="day")


@pytest.fixture(scope="module")
def serial_report():
    market = _market()
    return market.engine().run_windows_report(market.dataset, market.windows, workers=1)


def _pool_contents(engine) -> int:
    """Everything an engine's pools hold: accounted, reservoir, reservations."""
    return sum(
        pool.available + pool.reservoir_available + len(pool._reservations)
        for pool in engine.keyring.offline_pools
    )


@pytest.fixture
def cold_parent(monkeypatch):
    """A parent with no correlation yet, and every establishment counted.

    The counter is shared memory and forked children inherit the counting
    patch, so it sees base OTs run by the parent *or* by any worker.  The
    returned engine has already traded an inline pipelined day, so its
    pools hold one-shot material that must not reach a worker; every
    worker checks that its own rebuilt engine starts empty and counts
    itself in the second counter.
    """
    market = _market()
    engine = market.engine()
    engine.run_windows_report(market.dataset, market.windows, workers=1, pipeline=True)
    assert _pool_contents(engine) > 0

    context = multiprocessing.get_context("fork")
    established, checked = context.Value("i", 0), context.Value("i", 0)
    establish_correlation, run_payload = otext.establish_correlation, runner._run_payload

    def counting_establish(*args, **kwargs):
        with established.get_lock():
            established.value += 1
        return establish_correlation(*args, **kwargs)

    def checking_run_payload(worker_engine, payload):
        assert worker_engine is not engine
        assert _pool_contents(worker_engine) == 0
        with checked.get_lock():
            checked.value += 1
        return run_payload(worker_engine, payload)

    monkeypatch.setattr(otext, "_CORRELATION_CACHE", {})
    monkeypatch.setattr(otext, "establish_correlation", counting_establish)
    monkeypatch.setattr(runner, "_run_payload", checking_run_payload)
    return market, engine, established, checked


@pytest.mark.parametrize("workers", [2, 4])
def test_one_establishment_serves_the_parent_and_every_forked_worker(
    cold_parent, serial_report, workers
):
    market, engine, established, checked = cold_parent
    report = engine.run_windows_report(
        market.dataset, market.windows, workers=workers, pipeline=True
    )
    assert report.plan.workers == workers
    assert report.identical_to(serial_report)
    assert checked.value == workers
    assert established.value == 1


def test_respawned_worker_inherits_the_correlation_too(cold_parent, serial_report):
    market, engine, established, checked = cold_parent
    engine.config = replace(engine.config, fault_plan=FaultPlan(seed=17, kill_shards=(1,)))
    report = engine.run_windows_report(
        market.dataset, market.windows, workers=2, pipeline=True
    )
    assert report.identical_to(serial_report, include_incidents=False)
    assert [i.classification for i in report.incidents] == ["worker_loss"]
    # Two first-generation workers (one killed after its probe window)
    # plus the replacement.
    assert checked.value == 3
    assert established.value == 1


def test_cold_parent_establishes_before_spawning_anything(monkeypatch):
    monkeypatch.setattr(otext, "_CORRELATION_CACHE", {})
    monkeypatch.setattr(otext, "establish_correlation", _poison)
    contexts = []

    def no_context(*args):
        contexts.append(args)
        raise AssertionError("the runner reached for a process context")

    monkeypatch.setattr(multiprocessing, "get_context", no_context)
    market = _market()
    with pytest.raises(RuntimeError, match=POISON):
        market.engine().run_windows_report(market.dataset, market.windows, workers=2)
    assert contexts == []
    assert multiprocessing.active_children() == []


def test_poison_reaches_a_worker_the_parent_did_not_establish_for(monkeypatch):
    # Control on the controls: without the parent-side call a forked worker
    # has nothing to inherit, establishes for itself and trips the poison.
    monkeypatch.setattr(otext, "_CORRELATION_CACHE", {})
    monkeypatch.setattr(otext, "establish_correlation", _poison)
    monkeypatch.setattr(runner, "shared_correlation", lambda kappa: None)
    market = _market()
    with pytest.raises(RuntimeError, match=POISON):
        market.engine().run_windows_report(market.dataset, market.windows, workers=2)


def test_inline_plan_is_untouched_by_the_parent_side_call(monkeypatch, serial_report):
    monkeypatch.setattr(runner, "shared_correlation", _poison)
    market = _market()
    inline = market.engine().run_windows_report(
        market.dataset, market.windows, workers=1, pipeline=True
    )
    assert inline.identical_to(serial_report)


# -- cross-worker pad disjointness ---------------------------------------------

BATCH_COUNT, BATCH_MSG_LEN = 8, 17


def _seed_digest(correlation) -> str:
    return hashlib.sha256(b"".join(correlation.sender_seeds)).hexdigest()


def _batch_pads(correlation):
    """(digest of the sender's seeds, every pad of one freshly tagged batch)."""
    batch = otext.derive_batch(
        correlation, BATCH_COUNT, BATCH_MSG_LEN, instance=otext.fresh_instance_tag()
    )
    pads = {pad for pair in batch.sender_pad_pairs for pad in pair}
    # The receiver's pad is the sender's pad for its choice bit, hashed
    # from its own row: the inherited correlation still correlates.
    assert set(batch.receiver_pads) < pads
    return _seed_digest(correlation), pads


def _derive_in_child(conn):
    conn.send(_batch_pads(otext.shared_correlation(helpers.TEST_KAPPA)))
    conn.close()


def test_two_workers_extending_one_inherited_correlation_share_no_pad(monkeypatch):
    correlation = otext.shared_correlation(helpers.TEST_KAPPA)
    monkeypatch.setattr(otext, "establish_correlation", _poison)
    context = multiprocessing.get_context("fork")
    results = []
    for _ in range(2):
        ours, theirs = context.Pipe(duplex=False)
        child = context.Process(target=_derive_in_child, args=(theirs,))
        child.start()
        theirs.close()
        assert ours.poll(30)
        results.append(ours.recv())
        child.join(30)
        assert child.exitcode == 0
    results.append(_batch_pads(correlation))

    # All three extended the very same sender seeds ...
    assert {digest for digest, _ in results} == {_seed_digest(correlation)}
    # ... and no pad came out twice, within a batch or across processes.
    pad_sets = [pads for _, pads in results]
    assert len(set().union(*pad_sets)) == 3 * 2 * BATCH_COUNT
