"""Socket-mode determinism: shard fan-out and message fabric over TCP.

The runtime's socket mode ships :class:`ExecutionPlan` shards to worker
processes over loopback TCP (length-prefixed pickled frames — the same
wire format as the message-level ``SocketTransport``), and a
socket-configured engine additionally routes every protocol message of
every window through a real socket.  Both must reproduce the in-process
baseline bit for bit (``RunReport.identical_to``); only host wall-clock
may differ, which on the 1-core CI box is deliberately not asserted.
"""

import multiprocessing
import os
import socket
import time
from dataclasses import replace

import pytest

import helpers
from repro.chaos import FaultPlan
from repro.net.transport import recv_frame
from repro.runtime import ExecutionPlan, ParallelRunner, runner


def test_runner_rejects_unknown_transport():
    plan = ExecutionPlan.for_windows(helpers.TINY_MARKET_WINDOWS, 2)
    with pytest.raises(ValueError):
        ParallelRunner(plan, transport="pigeon")


def test_socket_shard_fanout_is_bit_identical():
    market = helpers.tiny_market()
    baseline = helpers.tiny_market_serial_report()
    sharded = market.engine().run_windows_report(
        market.dataset, market.windows, workers=2, runner_transport="socket"
    )
    assert sharded.plan.workers == 2
    assert baseline.identical_to(sharded)


def test_socket_message_fabric_is_bit_identical():
    market = helpers.tiny_market(transport="socket")
    baseline = helpers.tiny_market_serial_report()
    # config.transport="socket" routes every protocol message over TCP
    # *and* defaults the shard fan-out to sockets.
    over_socket = market.engine().run_windows_report(
        market.dataset, market.windows, workers=1
    )
    assert baseline.identical_to(over_socket)


def test_killed_socket_worker_is_respawned_bit_identically():
    # SIGKILL shard 1's worker after its first window: the supervisor layer
    # in the parent must re-run exactly that shard on a fresh worker, the
    # dead worker's partial accounting must be discarded wholesale, and the
    # day's economics must still match the serial baseline bit for bit.
    baseline = helpers.tiny_market_serial_report()
    market = helpers.tiny_market()
    engine = market.engine()
    engine.config = replace(engine.config, fault_plan=FaultPlan(seed=17, kill_shards=(1,)))
    report = engine.run_windows_report(
        market.dataset, market.windows, workers=2, runner_transport="socket"
    )
    assert report.identical_to(baseline, include_incidents=False)
    losses = [i for i in report.incidents if i.classification == "worker_loss"]
    assert len(losses) == 1
    assert losses[0].fault == "worker_kill"
    assert losses[0].action == "respawn"
    assert losses[0].recovered
    assert losses[0].shard_index == 1


def test_kill_flag_ignored_on_local_runner_transport():
    # Worker-kill chaos needs a socket worker to kill; the multiprocessing
    # pool path must run the same plan unharmed (and incident-free).
    baseline = helpers.tiny_market_serial_report()
    market = helpers.tiny_market()
    engine = market.engine()
    engine.config = replace(engine.config, fault_plan=FaultPlan(seed=17, kill_shards=(1,)))
    report = engine.run_windows_report(
        market.dataset, market.windows, workers=2, runner_transport="local"
    )
    assert report.identical_to(baseline, include_incidents=False)
    assert not [i for i in report.incidents if i.classification == "worker_loss"]


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
        market.dataset, market.windows, workers=2, runner_transport="socket"
    )
    assert time.perf_counter() - started < 60
    assert report.identical_to(baseline, include_incidents=False)
    assert [(i.classification, i.action) for i in report.incidents] == [
        ("worker_loss", "respawn")
    ]
    assert multiprocessing.active_children() == []
