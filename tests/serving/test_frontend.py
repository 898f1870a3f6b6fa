"""End-to-end front-end behaviour: dispatch, swap, crash recovery, pooling."""

import contextlib
import multiprocessing
import os
import signal
import sys
import threading
from multiprocessing.connection import Connection

import pytest

from repro.core.client import Client
from repro.core.errors import ConstructionError, QueryProcessingError
from repro.core.queries import TopKQuery
from repro.serving.dispatcher import ServingFrontEnd
from repro.serving.traffic import TrafficConfig, generate_trace, run_trace

DRAIN_TIMEOUT = 60.0
WORKER_BATCH_LIMIT = 2


def _worker_process(worker_id):
    """The live process currently serving as worker ``worker_id``."""
    (process,) = [
        child
        for child in multiprocessing.active_children()
        if child.name == f"serving-worker-{worker_id}"
    ]
    return process


@contextlib.contextmanager
def _frozen(process):
    """Hold a worker with SIGSTOP; it always gets SIGCONT again, so a failing
    test cannot leave a stopped process for the interpreter to join at exit."""
    os.kill(process.pid, signal.SIGSTOP)
    try:
        yield
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.kill(process.pid, signal.SIGCONT)


def _verifies(client, ticket):
    reply = ticket.reply
    return client.verify(reply.query, reply.result, reply.verification_object).is_valid


def _trace(setup, **overrides):
    defaults = {
        "rate": 500.0,
        "count": 60,
        "hot_fraction": 0.8,
        "hot_vectors": 2,
        "cold_vectors": 6,
        "seed": 31,
    }
    defaults.update(overrides)
    return generate_trace(setup["dataset"], setup["template"], TrafficConfig(**defaults))


def test_constructor_validation(serving_setup):
    with pytest.raises(ValueError, match="worker"):
        ServingFrontEnd(serving_setup["epoch0"], workers=0)
    with pytest.raises(ValueError, match="max_batch"):
        ServingFrontEnd(serving_setup["epoch0"], workers=1, max_batch=0)


def test_start_fails_cleanly_on_corrupt_artifact(serving_setup, tmp_path):
    corrupt = tmp_path / "corrupt.npz"
    corrupt.write_bytes(serving_setup["epoch0"].read_bytes()[:64])
    with pytest.raises(ConstructionError, match="failed to start"):
        ServingFrontEnd(corrupt, workers=2).start()


def test_submit_requires_running_frontend(serving_setup):
    frontend = ServingFrontEnd(serving_setup["epoch0"], workers=1)
    with pytest.raises(RuntimeError, match="not running"):
        frontend.submit(TopKQuery(weights=(0.5,), k=2))


def test_two_worker_frontend_serves_verified_answers(serving_setup):
    """Every ticket resolves with a client-verifiable reply, load is spread
    across workers, and same-weight queries actually share batches."""
    trace = _trace(serving_setup)
    client = Client.from_artifact(serving_setup["epoch0"])
    with ServingFrontEnd(serving_setup["epoch0"], workers=2) as frontend:
        tickets = run_trace(frontend, trace, paced=False)
        frontend.drain(tickets, timeout=DRAIN_TIMEOUT)
        stats = frontend.worker_stats()
    assert all(ticket.done and ticket.error is None for ticket in tickets)
    for ticket in tickets:
        assert ticket.reply.epoch == 0
        report = client.verify(
            ticket.reply.query, ticket.reply.result, ticket.reply.verification_object
        )
        assert report.is_valid
        assert ticket.latency is not None and ticket.latency >= 0.0
    total_batches = sum(stat["batches"] for stat in stats.values())
    total_served = sum(stat["served"] for stat in stats.values())
    assert total_served == len(tickets)
    assert total_batches < len(tickets), "same-weight queries must batch"
    assert all(stat["served"] > 0 for stat in stats.values()), "both workers serve"


def test_mid_stream_swap_drops_nothing_and_moves_epochs(serving_setup):
    trace = _trace(serving_setup, count=80, seed=32)
    clients = {
        0: Client.from_artifact(serving_setup["epoch0"]),
        1: Client.from_artifact(serving_setup["epoch1"]),
    }
    with ServingFrontEnd(serving_setup["epoch0"], workers=2) as frontend:
        outcome = {}

        def swap():
            outcome["broadcast"] = frontend.broadcast_swap(
                serving_setup["epoch1"], base=serving_setup["epoch0"]
            )

        tickets = run_trace(frontend, trace, paced=False, actions={40: swap})
        frontend.drain(tickets, timeout=DRAIN_TIMEOUT)
        assert frontend.epochs() == {0: 1, 1: 1}
    broadcast = outcome["broadcast"]
    assert broadcast.complete
    assert broadcast.new_epoch == 1
    assert broadcast.swapped == (0, 1)
    assert all(ticket.done and ticket.error is None for ticket in tickets)
    epochs_seen = set()
    for ticket in tickets:
        epoch = ticket.reply.epoch
        epochs_seen.add(epoch)
        assert clients[epoch].verify(
            ticket.reply.query, ticket.reply.result, ticket.reply.verification_object
        ).is_valid
    assert epochs_seen == {0, 1}, "swap must land mid-load"


def test_worker_crash_requeues_and_respawns(serving_setup):
    trace = _trace(serving_setup, count=80, seed=33)
    client = Client.from_artifact(serving_setup["epoch0"])
    with ServingFrontEnd(serving_setup["epoch0"], workers=2) as frontend:
        tickets = run_trace(
            frontend, trace, paced=False, actions={20: lambda: frontend.inject_crash(0)}
        )
        frontend.drain(tickets, timeout=DRAIN_TIMEOUT)
        stats = frontend.worker_stats()
        requeued = frontend.requeued
        # The respawned worker serves again when dispatched to directly
        # (it may still be cold-starting right after the drain).
        assert frontend.wait_ready(0, timeout=20.0)
        reply = frontend.execute_on(0, TopKQuery(weights=(0.5,), k=2))
    assert stats[0]["respawns"] == 1
    assert requeued > 0, "the dead worker owed queries and they were requeued"
    assert all(ticket.done and ticket.error is None for ticket in tickets)
    for ticket in tickets:
        assert client.verify(
            ticket.reply.query, ticket.reply.result, ticket.reply.verification_object
        ).is_valid
    assert client.verify(reply.query, reply.result, reply.verification_object).is_valid


def test_execute_on_rejects_unknown_and_dead_workers(serving_setup):
    with ServingFrontEnd(serving_setup["epoch0"], workers=1, auto_respawn=False) as frontend:
        with pytest.raises(KeyError, match="no worker"):
            frontend.execute_on(7, TopKQuery(weights=(0.5,), k=2))
        frontend.inject_crash(0)
        deadline = frontend.clock.now() + 20.0
        while frontend.worker_stats()[0]["ready"] and frontend.clock.now() < deadline:
            frontend.clock.sleep(0.01)
        with pytest.raises(QueryProcessingError, match="not serving"):
            frontend.execute_on(0, TopKQuery(weights=(0.5,), k=2))
        frontend.respawn(0)
        assert frontend.wait_ready(0, timeout=20.0)
        reply = frontend.execute_on(0, TopKQuery(weights=(0.5,), k=2))
        assert reply.epoch == 0


def test_replica_pool_mode_with_resilient_client(serving_setup):
    """WorkerProxy adapts worker processes to the resilience layer: pooled,
    verified execution with failover works over the process boundary."""
    from repro.resilience.pool import ResilientClient

    client = Client.from_artifact(serving_setup["epoch0"])
    with ServingFrontEnd(serving_setup["epoch0"], workers=2) as frontend:
        pool = frontend.replica_pool()
        assert len(pool) == 2
        assert [handle.server.epoch for handle in pool.handles] == [0, 0]
        resilient = ResilientClient(pool, client)
        for _ in range(4):
            outcome = resilient.execute(TopKQuery(weights=(0.5,), k=2))
            assert outcome.accepted
            assert outcome.report.is_valid


def test_idle_worker_gets_the_query_at_submit_with_one_serving_thread(serving_setup):
    """No linger: an idle worker is sent the query inside ``submit``.  The
    front-end adds exactly one thread, the collector (no pump, no queue
    feeder threads)."""
    client = Client.from_artifact(serving_setup["epoch0"])
    before = set(threading.enumerate())
    with ServingFrontEnd(serving_setup["epoch0"], workers=2) as frontend:
        ticket = frontend.submit(TopKQuery(weights=(0.5,), k=2))
        assert ticket.dispatched_at is not None
        assert frontend.pending == 0
        frontend.drain([ticket], timeout=DRAIN_TIMEOUT)
        added = set(threading.enumerate()) - before
    assert [thread.name for thread in added] == ["serving-collector"]
    assert ticket.error is None and _verifies(client, ticket)


@pytest.fixture
def short_switch_interval():
    """Switch threads often, so races on shared state show up."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def test_unpaced_burst_holds_at_most_two_batches_per_worker(
    serving_setup, short_switch_interval
):
    trace = _trace(serving_setup, count=500, seed=34)
    client = Client.from_artifact(serving_setup["epoch0"])
    tickets = []
    with ServingFrontEnd(serving_setup["epoch0"], workers=3) as frontend:
        for arrival in trace.arrivals:
            tickets.append(frontend.submit(arrival.query))
            # Read in dispatch order (pending, then workers, then done), so a
            # ticket that moves between reads is counted twice, never lost.
            pending = frontend.pending
            stats = frontend.worker_stats().values()
            done = sum(ticket.done for ticket in tickets)
            assert max(stat["outstanding_batches"] for stat in stats) <= WORKER_BATCH_LIMIT
            in_flight = sum(stat["outstanding"] for stat in stats)
            assert pending + in_flight + done >= len(tickets)
        frontend.drain(tickets, timeout=DRAIN_TIMEOUT)
        stats = frontend.worker_stats().values()
        assert frontend.pending == 0
    assert all(stat["outstanding_batches"] == 0 for stat in stats)
    assert all(ticket.error is None and _verifies(client, ticket) for ticket in tickets)
    assert sum(stat["served"] for stat in stats) == len(tickets)
    assert sum(stat["batches"] for stat in stats) < len(tickets)


def test_externally_killed_worker_is_detected_and_its_batches_requeued(serving_setup):
    """SIGKILL from outside (no crash message): the sentinel reports the
    death, and both batches the frozen worker held are requeued."""
    client = Client.from_artifact(serving_setup["epoch0"])
    with ServingFrontEnd(serving_setup["epoch0"], workers=2) as frontend:
        victim = _worker_process(0)
        with _frozen(victim):
            tickets = [
                frontend.submit(TopKQuery(weights=(0.2 + 0.1 * (index % 3),), k=2))
                for index in range(12)
            ]
            owed = frontend.worker_stats()[0]["outstanding"]
            assert frontend.worker_stats()[0]["outstanding_batches"] == WORKER_BATCH_LIMIT
            os.kill(victim.pid, signal.SIGKILL)
        frontend.drain(tickets, timeout=DRAIN_TIMEOUT)
        assert frontend.wait_ready(0, timeout=20.0)
        stats = frontend.worker_stats()
        requeued = frontend.requeued
    assert requeued == owed > 0
    assert stats[0]["respawns"] == 1
    assert all(ticket.error is None and _verifies(client, ticket) for ticket in tickets)


def test_reply_sent_just_before_death_resolves_exactly_once(serving_setup):
    """The pipe holds [batch A, crash, batch B]: A's reply is written before
    the worker dies and resolves A from that worker; only B is requeued."""
    client = Client.from_artifact(serving_setup["epoch0"])
    with ServingFrontEnd(serving_setup["epoch0"], workers=1) as frontend:
        with _frozen(_worker_process(0)):
            first = frontend.submit(TopKQuery(weights=(0.5,), k=2))
            frontend.inject_crash(0)
            second = frontend.submit(TopKQuery(weights=(0.5,), k=3))
        frontend.drain([first, second], timeout=DRAIN_TIMEOUT)
        stats = frontend.worker_stats()[0]
        requeued = frontend.requeued
    assert requeued == 1, "only the batch behind the crash is requeued"
    assert stats["respawns"] == 1
    assert stats["served"] == 2 and stats["batches"] == 2
    for ticket in (first, second):
        assert ticket.error is None and _verifies(client, ticket)


def test_broken_pipe_on_send_never_escapes_submit(serving_setup, monkeypatch):
    """The worker dies after it was picked but before the batch is sent: the
    send fails, ``submit`` still returns, and recovery requeues the batch."""
    client = Client.from_artifact(serving_setup["epoch0"])
    raised = []
    with ServingFrontEnd(serving_setup["epoch0"], workers=1) as frontend:
        victim = _worker_process(0)
        real_send = Connection.send

        def send_after_death(conn, message):
            if message[0] == "batch" and victim.is_alive():
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(20.0)
                try:
                    real_send(conn, message)
                except OSError as err:
                    raised.append(type(err))
                    raise
            else:
                real_send(conn, message)

        monkeypatch.setattr(Connection, "send", send_after_death)
        ticket = frontend.submit(TopKQuery(weights=(0.5,), k=2))
        monkeypatch.undo()
        frontend.drain([ticket], timeout=DRAIN_TIMEOUT)
        requeued = frontend.requeued
    assert raised == [BrokenPipeError]
    assert requeued == 1
    assert ticket.error is None and _verifies(client, ticket)


def test_stop_fails_every_unresolved_ticket(serving_setup):
    """Queries owed by a dead worker (no respawn) and queries still pending
    in the front-end all resolve with an error when the front-end stops."""
    with ServingFrontEnd(serving_setup["epoch0"], workers=1, auto_respawn=False) as frontend:
        victim = _worker_process(0)
        with _frozen(victim):
            tickets = [
                frontend.submit(TopKQuery(weights=(0.1 * (index + 1),), k=2))
                for index in range(5)
            ]
            assert frontend.worker_stats()[0]["outstanding_batches"] == WORKER_BATCH_LIMIT
            assert frontend.pending == 3
            os.kill(victim.pid, signal.SIGKILL)
    for ticket in tickets:
        assert ticket.wait(DRAIN_TIMEOUT)
        assert ticket.error == "front-end stopped"
        assert ticket.reply is None
