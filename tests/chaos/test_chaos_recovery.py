"""End-to-end chaos recovery: certified detect-and-recover, property-tested.

The contract under test is the tentpole guarantee of the chaos engine:

* a chaos run whose supervisor retries to success is **bit-identical** to
  the fault-free baseline (``RunReport.identical_to`` with the incident
  ledger excluded — the ledger is exactly the difference);
* every injected fault becomes **exactly one classified incident** with
  the right classification and action;
* tampered GC material and exhausted retry budgets **fail closed** with
  :class:`WindowAbortError` — never a silent wrong answer;
* two runs of the same plan produce **equal incident ledgers**
  (``identical_to`` with incidents included), serial or sharded.

The hypothesis block samples random seeds and fault-rate mixes through
both transports; the deterministic tests pin one scenario per fault
family.  All runs share the cached tiny market (2 windows keep the
property loop tractable; the full 4-window day is covered by the runtime
suites and the chaos bench section).
"""

import socket
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from repro.chaos import FaultPlan, GcTamper, PoolDrain
from repro.net import MessageKind
from repro.runtime import WindowAbortError

WINDOWS = helpers.TINY_MARKET_WINDOWS[:2]


def _baseline(**market_kwargs):
    market = helpers.tiny_market(**market_kwargs)
    return market, market.engine().run_windows_report(market.dataset, WINDOWS, workers=1)


@pytest.fixture(scope="module")
def local_baseline():
    return _baseline()


def _chaos_report(market, plan, workers=1, **kwargs):
    engine = market.engine()
    engine.config = replace(engine.config, fault_plan=plan)
    return engine.run_windows_report(market.dataset, WINDOWS, workers=workers, **kwargs)


# -- the property: random plans, both transports, recovery is bit-exact ---------


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rates=st.lists(st.sampled_from([0.0, 0.005, 0.01, 0.02]), min_size=4, max_size=4),
    faults_per_window=st.integers(min_value=1, max_value=2),
)
def test_random_fault_plans_recover_bit_identically_local(
    local_baseline, seed, rates, faults_per_window
):
    market, baseline = local_baseline
    plan = FaultPlan(
        seed=seed,
        drop_rate=rates[0],
        reorder_rate=rates[1],
        duplicate_rate=rates[2],
        corrupt_rate=rates[3],
        max_faults_per_window=faults_per_window,
        max_attempts=4,
    )
    report = _chaos_report(market, plan)
    assert report.identical_to(baseline, include_incidents=False)
    # Exactly one classified incident per injected fault, every one
    # recovered, and a replay of the same plan reproduces the ledger.
    for incident in report.incidents:
        assert incident.recovered
        assert incident.classification == "transient_transport"
        assert incident.action == "retry"
        assert incident.fault in ("drop", "reorder", "duplicate", "corrupt")
    replay = _chaos_report(market, plan)
    assert replay.identical_to(report)  # incident ledgers included


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_fault_plans_recover_over_socket_fabric(seed):
    market, baseline = _baseline(transport="socket")
    plan = FaultPlan(seed=seed, drop_rate=0.01, corrupt_rate=0.01, max_attempts=4)
    report = _chaos_report(market, plan)
    assert report.identical_to(baseline, include_incidents=False)
    assert all(i.recovered for i in report.incidents)


def test_frame_error_at_the_end_of_window_flush_is_a_classified_incident():
    """A deferred socket failure still lands inside the supervised window.

    The first attempt's connection dies as the first PAYMENT frame is
    queued — after Protocol 4's last inbox read, so nothing but the
    engine's end-of-window flush can notice.  It must surface there, inside
    ``run_window``, as a ``transient_transport`` incident the supervisor
    retries — not as an exception escaping the run.
    """
    market, baseline = _baseline(transport="socket")
    engine = market.engine()
    engine.config = replace(engine.config, fault_plan=FaultPlan(seed=1, max_attempts=3))
    build_network = engine.build_network
    connections = []

    def build_network_losing_the_first_connection():
        network = build_network()
        if not connections:
            connections.append(network.transport._sender)

            def cut(message):
                if message.kind is MessageKind.PAYMENT and connections[0] is not None:
                    connections[0].shutdown(socket.SHUT_RDWR)
                    connections[0] = None

            network.add_message_hook(cut)
        return network

    engine.build_network = build_network_losing_the_first_connection
    report = engine.run_windows_report(market.dataset, WINDOWS, workers=1)
    assert report.identical_to(baseline, include_incidents=False)
    (incident,) = report.incidents
    assert incident.fault == "connection-lost"
    assert incident.classification == "transient_transport"
    assert incident.action == "retry" and incident.recovered
    assert "frame=" in incident.detail  # names the oldest unacknowledged frame


def test_ratio_submission_withheld_before_the_holders_read_is_a_transient_fault(local_baseline):
    """A reorder that holds back the *last* ratio submission fails closed.

    No later send flushes the held frame before the ratio holder reads, so
    the holder sees one submission too few.  That must be a retried
    ``transient_transport`` incident, not a ``KeyError`` out of the
    protocol (plan found by the random property above).
    """
    market, baseline = local_baseline
    plan = FaultPlan(seed=792, reorder_rate=0.01, max_faults_per_window=1, max_attempts=4)
    report = _chaos_report(market, plan)
    assert report.identical_to(baseline, include_incidents=False)
    assert report.incidents and all(
        (i.fault, i.classification, i.recovered) == ("reorder", "transient_transport", True)
        for i in report.incidents
    )


# -- one pinned scenario per fault family ---------------------------------------


def _plan_with_guaranteed_frame_fault(market, baseline, **rate):
    """A plan (found by seed search) that injects at least one fault."""
    for seed in range(64):
        plan = FaultPlan(seed=seed, max_attempts=4, **rate)
        report = _chaos_report(market, plan)
        if report.incidents:
            return plan, report
    raise AssertionError("no seed injected a fault — rates too low for the day")


@pytest.mark.parametrize(
    "rate_name", ["drop_rate", "reorder_rate", "duplicate_rate", "corrupt_rate"]
)
def test_each_frame_fault_family_recovers(local_baseline, rate_name):
    market, baseline = local_baseline
    plan, report = _plan_with_guaranteed_frame_fault(market, baseline, **{rate_name: 0.02})
    expected_kind = rate_name[: -len("_rate")]
    assert report.identical_to(baseline, include_incidents=False)
    assert [i.fault for i in report.incidents] == [expected_kind] * len(report.incidents)
    assert all(i.recovered and i.action == "retry" for i in report.incidents)


def test_pool_drain_classified_and_recovered(local_baseline):
    market, baseline = local_baseline
    plan = FaultPlan(seed=2, pool_drains=(PoolDrain(window=WINDOWS[0]),))
    report = _chaos_report(market, plan)
    assert report.identical_to(baseline, include_incidents=False)
    (incident,) = report.incidents
    assert incident.fault == "pool_drain"
    assert incident.classification == "resource_exhaustion"
    assert incident.action == "retry"
    assert incident.recovered
    assert "fallback" in incident.detail


@pytest.mark.parametrize("target", ["row", "label", "pad"])
def test_gc_tamper_fails_closed_with_attributable_incident(local_baseline, target):
    market, _ = local_baseline
    plan = FaultPlan(seed=2, tampers=(GcTamper(window=WINDOWS[0], target=target),))
    with pytest.raises(WindowAbortError) as excinfo:
        _chaos_report(market, plan)
    incidents = excinfo.value.incidents
    assert any(
        i.fault == "gc_tamper"
        and i.classification == "integrity_violation"
        and i.action == "abort"
        and not i.recovered
        for i in incidents
    )


def test_persistent_fault_exhausts_budget_and_aborts(local_baseline):
    market, _ = local_baseline
    # A fault that survives every retry must fail closed, not loop.
    plan = FaultPlan(seed=0, drop_rate=1.0, persist_attempts=99, max_attempts=2)
    with pytest.raises(WindowAbortError) as excinfo:
        _chaos_report(market, plan)
    assert "retry budget exhausted" in str(excinfo.value)
    incidents = excinfo.value.incidents
    assert len(incidents) == plan.max_attempts  # one drop per attempt
    assert incidents[-1].action == "abort"


def test_sharded_chaos_ledger_matches_serial(local_baseline):
    market, baseline = local_baseline
    plan = FaultPlan(seed=11, drop_rate=0.01, corrupt_rate=0.01, max_attempts=4)
    serial = _chaos_report(market, plan)
    sharded = _chaos_report(market, plan, workers=2)
    assert serial.identical_to(baseline, include_incidents=False)
    # Incident signatures exclude shard indices, so the full certificate
    # (traces + stats + ledger) holds across worker counts.
    assert sharded.identical_to(serial)


def test_chaos_requires_fresh_network_per_window(local_baseline):
    market, _ = local_baseline
    engine = market.engine()
    engine.config = replace(engine.config, fault_plan=FaultPlan(seed=1))
    with pytest.raises(ValueError):
        engine.run_windows_report(market.dataset, WINDOWS, workers=1, reuse_network=True)
