"""Unit contract of the chaos layer's building blocks.

* :class:`FaultPlan` — seeded decisions must be pure functions of
  ``(seed, window, ordinal)``: same plan → same faults, different seed →
  (eventually) different faults, validation rejects nonsense rates.
* :class:`FaultyTransport` — each frame fault surfaces as its typed error
  with full attribution (sender, recipient, ordinal, message kind) and
  lands exactly once in the injected-fault ledger; a zero-fault plan is
  bit-transparent (the conformance suite certifies the full contract,
  here we spot-check the decorator mechanics).
* pool ``force_drain`` hooks — drain the accounted pool only, leaving
  reservoirs and produced/consumed accounting untouched.
"""

import pickle
import random

import pytest

import helpers
from repro.chaos import (
    FaultPlan,
    FaultyTransport,
    FrameCorruptionError,
    FrameDropError,
    FrameDuplicateError,
    FrameReorderError,
    GcTamper,
    PoolDrain,
)
from repro.crypto.accel import RandomizerPool
from repro.net import LocalTransport, MessageKind, SimulatedNetwork
from repro.net.transport import AckTimeoutError, ConnectionLostError, FrameError
from repro.runtime.supervisor import WindowSupervisor


# -- FaultPlan ------------------------------------------------------------------


def test_plan_decisions_are_deterministic():
    a = FaultPlan(seed=99, drop_rate=0.3, corrupt_rate=0.2)
    b = FaultPlan(seed=99, drop_rate=0.3, corrupt_rate=0.2)
    decisions = [(w, o, a.frame_fault(w, 0, o)) for w in range(5) for o in range(40)]
    assert decisions == [(w, o, b.frame_fault(w, 0, o)) for w in range(5) for o in range(40)]
    # A fault draw never depends on earlier frames' fates.
    assert a.frame_fault(3, 0, 7) == a.frame_fault(3, 0, 7)


def test_plan_seeds_decorrelate():
    a = FaultPlan(seed=1, drop_rate=0.5)
    b = FaultPlan(seed=2, drop_rate=0.5)
    fates_a = [a.frame_fault(0, 0, o) for o in range(64)]
    fates_b = [b.frame_fault(0, 0, o) for o in range(64)]
    assert fates_a != fates_b


def test_plan_rate_precedence_and_budget():
    plan = FaultPlan(seed=5, drop_rate=1.0)
    assert plan.frame_fault(0, 0, 0) == "drop"
    # The per-window fault budget gates injection...
    assert plan.frame_fault(0, 0, 1, injected=1) is None
    # ...and so does the attempt horizon (retries run clean by default).
    assert plan.active_for(0) and not plan.active_for(1)
    assert plan.frame_fault(0, 1, 0) is None


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(drop_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(drop_rate=0.6, corrupt_rate=0.6)
    with pytest.raises(ValueError):
        FaultPlan(max_attempts=0)
    with pytest.raises(ValueError):
        PoolDrain(window=0, pool="entropy")
    with pytest.raises(ValueError):
        GcTamper(window=0, target="everything")
    assert FaultPlan().is_idle
    assert not FaultPlan(tampers=(GcTamper(window=3),)).is_idle


def test_plan_schedules_filter_by_window_and_attempt():
    drain = PoolDrain(window=4)
    tamper = GcTamper(window=9)
    plan = FaultPlan(pool_drains=(drain,), tampers=(tamper,))
    assert plan.drains_for(4, 0) == (drain,)
    assert plan.drains_for(5, 0) == ()
    assert plan.drains_for(4, 1) == ()  # retries run clean
    assert plan.tampers_for(9, 0) == (tamper,)
    assert plan.tampers_for(9, 2) == ()


def test_plan_pickles_inside_config():
    plan = FaultPlan(seed=7, drop_rate=0.1, pool_drains=(PoolDrain(window=2),))
    assert pickle.loads(pickle.dumps(plan)) == plan


# -- FaultyTransport ------------------------------------------------------------


def _chaos_pair(plan, window=5):
    net = SimulatedNetwork(transport=FaultyTransport(LocalTransport(), plan, window=window))
    return net, net.register("alice"), net.register("bob")


def test_drop_raises_with_attribution_and_ledger():
    net, alice, bob = _chaos_pair(FaultPlan(seed=1, drop_rate=1.0))
    with pytest.raises(FrameDropError) as excinfo:
        alice.send("bob", MessageKind.GENERIC, payload=b"x")
    err = excinfo.value
    assert err.fault == "drop"
    assert err.sender == "alice" and err.recipient == "bob"
    assert err.ordinal == 0 and err.kind == MessageKind.GENERIC.value
    assert bob.receive_all() == []  # the frame really was lost
    ledger = net.transport.injected
    assert [f.kind for f in ledger] == ["drop"]
    assert ledger[0].window == 5 and ledger[0].ordinal == 0
    # Budget spent: the next frame passes through untouched.
    alice.send("bob", MessageKind.GENERIC, payload=b"y")
    assert [m.payload for m in bob.receive_all()] == [b"y"]


def test_reorder_holds_frame_then_rejects_it_stale():
    net, alice, bob = _chaos_pair(FaultPlan(seed=1, reorder_rate=1.0))
    alice.send("bob", MessageKind.GENERIC, payload=b"first")  # held back
    assert bob.receive_all() == []
    with pytest.raises(FrameReorderError) as excinfo:
        alice.send("bob", MessageKind.GENERIC, payload=b"second")
    assert excinfo.value.ordinal == 0  # the *stale* frame is the rejected one
    # The overtaking frame was delivered before the stale one was flushed.
    assert [m.payload for m in bob.receive_all()] == [b"second"]
    assert [f.kind for f in net.transport.injected] == ["reorder"]


def test_duplicate_delivers_once_and_rejects_replay():
    net, alice, bob = _chaos_pair(FaultPlan(seed=1, duplicate_rate=1.0))
    with pytest.raises(FrameDuplicateError):
        alice.send("bob", MessageKind.GENERIC, payload=b"once")
    assert [m.payload for m in bob.receive_all()] == [b"once"]
    assert [f.kind for f in net.transport.injected] == ["duplicate"]


def test_corruption_is_caught_by_digest_before_delivery():
    net, alice, bob = _chaos_pair(FaultPlan(seed=1, corrupt_rate=1.0))
    with pytest.raises(FrameCorruptionError) as excinfo:
        alice.send("bob", MessageKind.GENERIC, payload=b"payload")
    assert "digest mismatch" in str(excinfo.value)
    assert bob.receive_all() == []  # unverified bytes are never delivered
    assert [f.kind for f in net.transport.injected] == ["corrupt"]


def test_zero_fault_plan_is_transparent():
    net, alice, bob = _chaos_pair(FaultPlan())
    for i in range(6):
        alice.send("bob", MessageKind.GENERIC, payload=bytes([i]))
    assert [m.payload for m in bob.receive_all()] == [bytes([i]) for i in range(6)]
    assert net.transport.injected == []


# -- frame-error attribution (the half-closed-socket fix) -----------------------


def test_frame_error_carries_and_pickles_context():
    err = ConnectionLostError(
        "socket transport connection lost awaiting ack",
        sender="home-003",
        recipient="home-007",
        ordinal=42,
        kind="generic",
    )
    assert isinstance(err, FrameError)
    assert err.fault == "connection-lost"
    for copy_ in (err, pickle.loads(pickle.dumps(err))):
        assert copy_.sender == "home-003"
        assert copy_.recipient == "home-007"
        assert copy_.ordinal == 42
        assert copy_.kind == "generic"
        assert "home-003" in str(copy_) and "frame=42" in str(copy_)


def test_overdue_ack_is_a_classified_transient_incident():
    err = AckTimeoutError(
        "no cumulative ack within 30.0 s",
        sender="home-001",
        recipient="home-002",
        ordinal=7,
        kind="payment",
    )
    (incident,) = WindowSupervisor(FaultPlan())._classify_failure([], err, attempt=0)
    assert incident.fault == "ack-timeout"
    assert incident.classification == "transient_transport"
    assert incident.action == "retry"
    assert "home-001" in incident.detail and "frame=7" in incident.detail


# -- pool force_drain hooks -----------------------------------------------------


def test_comparison_pool_force_drain_spares_reservoir_and_accounting():
    pool = helpers.small_comparison_pool(8)
    pool.reserve(0, 2)
    pool.claim_reservation(0)
    pool.warm(2)
    produced_before = pool.produced
    assert pool.available == 2
    assert pool.force_drain() == 2
    assert pool.available == 0
    assert pool.reservoir_available == 0  # warm consumed the claimed values
    assert pool.produced == produced_before  # drain is not production
    assert pool.peek() is None
    # The pool still works — takes simply miss (the caller's fallback
    # accounting is what makes the drain detectable).
    assert pool.take() is None


def test_randomizer_pool_force_drain():
    keypair = helpers.shared_keypair()
    pool = RandomizerPool(
        keypair.public_key, private_key=keypair.private_key, rng=random.Random(3)
    )
    pool.warm(3)
    assert pool.available == 3
    assert pool.force_drain() == 3
    assert pool.available == 0
    # Draining twice is a no-op, and the pool still produces on demand.
    assert pool.force_drain() == 0
    assert isinstance(pool.take(), int)
