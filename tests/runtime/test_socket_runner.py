"""Shard fan-out over TCP: determinism, recovery and its failure modes.

Every multi-shard plan ships its shards to worker processes over loopback
TCP (length-prefixed pickled frames — the same wire format as the
message-level ``SocketTransport``), and a socket-configured engine
additionally routes every protocol message of every window through a real
socket.  Both must reproduce the in-process baseline bit for bit
(``RunReport.identical_to``); only host wall-clock may differ, which on the
1-core CI box is deliberately not asserted.  The fan-out's failure modes —
a worker that never connects back, one that dies on every attempt, one
that stalls, one that ships a fail-closed abort — each end the run in
seconds with no worker process left behind.
"""

import multiprocessing
import os
import socket
import time
from dataclasses import replace

import pytest

import helpers
from repro.chaos import FaultPlan, GcTamper
from repro.net.transport import recv_frame
from repro.runtime import ParallelRunner, WindowAbortError, runner


def test_socket_shard_fanout_is_bit_identical():
    market = helpers.tiny_market()
    baseline = helpers.tiny_market_serial_report()
    sharded = market.engine().run_windows_report(
        market.dataset, market.windows, workers=2
    )
    assert sharded.plan.workers == 2
    assert baseline.identical_to(sharded)


def test_socket_message_fabric_is_bit_identical():
    market = helpers.tiny_market(transport="socket")
    baseline = helpers.tiny_market_serial_report()
    # config.transport="socket" routes every protocol message over TCP.
    over_socket = market.engine().run_windows_report(
        market.dataset, market.windows, workers=1
    )
    assert baseline.identical_to(over_socket)


def _killed_shard_report(market):
    engine = market.engine()
    engine.config = replace(engine.config, fault_plan=FaultPlan(seed=17, kill_shards=(1,)))
    return engine.run_windows_report(market.dataset, market.windows, workers=2)


def _assert_one_respawn_on_shard_1(report):
    losses = [i for i in report.incidents if i.classification == "worker_loss"]
    assert len(losses) == 1
    assert losses[0].fault == "worker_kill"
    assert losses[0].action == "respawn"
    assert losses[0].recovered
    assert losses[0].shard_index == 1


def test_killed_socket_worker_is_respawned_bit_identically():
    # SIGKILL shard 1's worker after its first window: the supervisor layer
    # in the parent must re-run exactly that shard on a fresh worker, the
    # dead worker's partial accounting must be discarded wholesale, and the
    # day's economics must still match the serial baseline bit for bit.
    report = _killed_shard_report(helpers.tiny_market(transport="socket"))
    assert report.identical_to(helpers.tiny_market_serial_report(), include_incidents=False)
    _assert_one_respawn_on_shard_1(report)


def test_kill_flag_is_honoured_on_a_local_transport_engine():
    # In-process protocol messages do not change how shards reach their
    # workers: the kill fires and is recovered exactly as over sockets.
    report = _killed_shard_report(helpers.tiny_market())
    assert report.identical_to(helpers.tiny_market_serial_report(), include_incidents=False)
    _assert_one_respawn_on_shard_1(report)


def test_socket_everything_day_scope():
    # The full stack at once: day-scoped sessions, socket message fabric,
    # socket shard fan-out — against the local day-scoped serial run.
    local = helpers.tiny_market(session_scope="day")
    baseline = local.engine().run_windows_report(
        local.dataset, local.windows, workers=1
    )
    market = helpers.tiny_market(session_scope="day", transport="socket")
    sharded = market.engine().run_windows_report(
        market.dataset, market.windows, workers=2
    )
    assert baseline.identical_to(sharded)


def test_worker_stalled_mid_frame_is_lost_at_the_deadline_not_waited_for(
    monkeypatch, tmp_path
):
    # The first worker to connect reads its payload, sends only the 4-byte
    # header of an outcome and goes to sleep.  The parent must not block in
    # that half-read frame: the shard connection's deadline turns the stall
    # into a worker loss (same incident, same respawn) and the sleeper is
    # killed on the way out.
    real_worker = runner._socket_shard_worker
    marker = tmp_path / "stalled"

    def first_worker_stalls(host, port):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return real_worker(host, port)
        with socket.create_connection((host, port)) as conn:
            recv_frame(conn)
            conn.sendall((1 << 20).to_bytes(4, "big"))
            time.sleep(600)

    monkeypatch.setattr(runner, "_socket_shard_worker", first_worker_stalls)
    monkeypatch.setattr(runner, "_ACK_TIMEOUT_S", 0.3)
    baseline = helpers.tiny_market_serial_report()
    market = helpers.tiny_market()
    started = time.perf_counter()
    report = market.engine().run_windows_report(
        market.dataset, market.windows, workers=2
    )
    assert time.perf_counter() - started < 60
    assert report.identical_to(baseline, include_incidents=False)
    assert [(i.classification, i.action) for i in report.incidents] == [
        ("worker_loss", "respawn")
    ]
    assert multiprocessing.active_children() == []


def test_worker_that_never_connects_back_fails_the_run_not_hangs_it(monkeypatch):
    monkeypatch.setattr(runner, "_socket_shard_worker", lambda host, port: None)
    market = helpers.tiny_market()
    started = time.perf_counter()
    with pytest.raises(RuntimeError, match="exited before connecting back"):
        market.engine().run_windows_report(market.dataset, market.windows, workers=2)
    assert time.perf_counter() - started < 30
    assert multiprocessing.active_children() == []


def test_shard_whose_worker_always_dies_fails_closed_after_the_respawn_cap(monkeypatch):
    # Every worker reads its payload and hangs up without an outcome: each
    # loss is respawned until one shard exceeds its cap, then the run fails.
    def worker_dies_mid_shard(host, port):
        with socket.create_connection((host, port)) as conn:
            recv_frame(conn)

    monkeypatch.setattr(runner, "_socket_shard_worker", worker_dies_mid_shard)
    market = helpers.tiny_market()
    deaths = ParallelRunner.MAX_RESPAWNS_PER_SHARD + 1
    with pytest.raises(RuntimeError, match=f"died {deaths} times"):
        market.engine().run_windows_report(market.dataset, market.windows, workers=2)
    assert multiprocessing.active_children() == []


def test_worker_abort_propagates_and_is_not_respawned(monkeypatch):
    # A tamper in shard 0's first window fails closed inside the worker;
    # the parent re-raises the shipped WindowAbortError with its incident
    # ledger and spawns no replacement.
    spawned = multiprocessing.get_context("fork").Value("i", 0)
    real_worker = runner._socket_shard_worker

    def counting_worker(host, port):
        with spawned.get_lock():
            spawned.value += 1
        real_worker(host, port)

    monkeypatch.setattr(runner, "_socket_shard_worker", counting_worker)
    market = helpers.tiny_market()
    engine = market.engine()
    plan = FaultPlan(seed=2, tampers=(GcTamper(window=market.windows[0]),))
    engine.config = replace(engine.config, fault_plan=plan)
    with pytest.raises(WindowAbortError) as excinfo:
        engine.run_windows_report(market.dataset, market.windows, workers=2)
    incidents = excinfo.value.incidents
    assert any(
        (i.fault, i.classification, i.action, i.recovered)
        == ("gc_tamper", "integrity_violation", "abort", False)
        for i in incidents
    )
    assert not [i for i in incidents if i.classification == "worker_loss"]
    assert spawned.value == 2
    assert multiprocessing.active_children() == []
