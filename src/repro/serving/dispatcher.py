"""The multi-worker serving front-end: work-conserving dispatch over worker processes.

Architecture (one :class:`ServingFrontEnd` instance)::

    submit(query) ──> pending weight groups ──> one pipe per worker ──┐
                      (coalesce only while      (<= 2 batches each)   │ N processes, each
                       every worker is full)                          │ a Server.from_artifact
    ServingTicket <── collector thread <── pipes + process sentinels ─┘ cold start

* **Dispatch.**  A worker holds at most :data:`WORKER_BATCH_LIMIT` batches:
  one being served and one queued behind it, so it never idles for a
  reply's round trip.  On every submit, batch reply, worker ready and
  requeue, the oldest pending weight group (at most ``max_batch`` queries)
  goes to the least-loaded worker with room, so an idle worker gets a query
  at once.  Only while every worker is full do queries wait, grouped by
  weight vector (the axis :meth:`repro.core.server.Server.execute_batch`
  amortizes); batches grow with load and no timer runs.
* **Transport.**  One ``multiprocessing.Pipe`` per worker.  Sends happen
  under the dispatcher lock and cannot block: two batches never fill a pipe.
  A single collector thread blocks in ``multiprocessing.connection.wait``
  on every pipe, every live worker's process sentinel and a wake pipe.
* **Crash recovery.**  When a worker exits, the collector first resolves
  the replies it sent before dying, then requeues every batch it still
  owed (queued *or* in flight -- both are tracked in ``outstanding``; a
  send that raced the death leaves its batch there too) and respawns it
  from the current artifact: a crash costs latency, never a query.
* **Epoch hot-swap.**  :meth:`ServingFrontEnd.broadcast_swap` sends a swap
  control message down every worker's FIFO pipe: batches sent before the
  swap finish on their entry epoch (each reply carries the epoch that
  served it, so the front-end can verify against the matching public
  parameters), later batches run on the new epoch, and no query is dropped.
* **Resilience integration.**  :meth:`ServingFrontEnd.replica_pool` wraps
  each worker in a :class:`WorkerProxy` carrying the server ``execute``
  surface, so the whole front-end can sit behind
  :class:`repro.resilience.pool.ReplicaPool` /
  :class:`~repro.resilience.pool.ResilientClient` -- per-query verification,
  retry, failover and quarantine with worker processes as the replicas.

Determinism discipline (RL010): this module never reads the wall clock
directly -- all timestamps come from the injected
:class:`~repro.serving.recorder.ServingClock` -- and contains no
randomness at all; given the same trace and worker replies, every batching
and routing decision replays identically.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import threading
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConstructionError, QueryProcessingError
from repro.core.queries import AnalyticQuery
from repro.core.server import QueryExecution
from repro.serving.recorder import ServingClock
from repro.serving.worker import WorkerReply, worker_main

__all__ = [
    "ServingTicket",
    "ServingFrontEnd",
    "SwapBroadcast",
    "WorkerProxy",
    "wait_all",
]

#: Default largest batch: bounds the service cost one batch adds to a query.
DEFAULT_MAX_BATCH = 8
#: Batches one worker may hold: one being served, one queued behind it.
WORKER_BATCH_LIMIT = 2
#: Default seconds to wait for all workers to cold-start.
DEFAULT_START_TIMEOUT = 120.0


class ServingTicket:
    """One submitted query's lifecycle: enqueue -> dispatch -> reply.

    The timestamps are stamped by the front-end from its
    :class:`ServingClock` (``enqueued_at`` at submission, ``dispatched_at``
    when the batch left for a worker, ``completed_at`` when the reply
    arrived) -- the enqueue-to-completion difference is the user-visible
    latency the recorder reports.  ``wait`` blocks until the reply (or
    error) is in.
    """

    __slots__ = (
        "ticket_id",
        "query",
        "enqueued_at",
        "dispatched_at",
        "completed_at",
        "worker_id",
        "reply",
        "error",
        "_event",
    )

    def __init__(self, ticket_id: int, query: AnalyticQuery, enqueued_at: float):
        self.ticket_id = ticket_id
        self.query = query
        self.enqueued_at = enqueued_at
        self.dispatched_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.worker_id: Optional[int] = None
        self.reply: Optional[WorkerReply] = None
        self.error: Optional[str] = None
        self._event = threading.Event()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.enqueued_at

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved; returns False on timeout."""
        return self._event.wait(timeout)

    def _resolve(self, completed_at: float, worker_id, reply=None, error=None) -> None:
        self.reply = reply
        self.error = error
        self.worker_id = worker_id
        self.completed_at = completed_at
        self._event.set()


def wait_all(
    tickets: Sequence[ServingTicket], timeout: float, clock: ServingClock
) -> List[ServingTicket]:
    """Wait for every ticket (shared deadline); returns the unresolved ones."""
    deadline = clock.now() + timeout
    pending: List[ServingTicket] = []
    for ticket in tickets:
        if not ticket.wait(max(0.0, deadline - clock.now())):
            pending.append(ticket)
    return pending


@dataclass(frozen=True)
class SwapBroadcast:
    """Outcome of one :meth:`ServingFrontEnd.broadcast_swap` call."""

    new_epoch: int
    swapped: Tuple[int, ...]
    errors: Tuple[str, ...]
    timed_out: Tuple[int, ...]

    @property
    def complete(self) -> bool:
        return not self.errors and not self.timed_out


@dataclass
class _WorkerSlot:
    """Dispatcher-side bookkeeping for one worker process."""

    worker_id: int
    process: object = None
    conn: object = None  # the front-end's end of the pipe; None once retired
    ready: bool = False
    epoch: Optional[int] = None
    start_error: Optional[str] = None
    served: int = 0
    batches: int = 0
    busy_seconds: float = 0.0
    respawns: int = 0
    #: Unresolved batches sent to this worker, by batch id.
    outstanding: Dict[int, List[ServingTicket]] = field(default_factory=dict)

    @property
    def outstanding_queries(self) -> int:
        return sum(len(tickets) for tickets in self.outstanding.values())


class ServingFrontEnd:
    """N worker processes behind one work-conserving, crash-recovering dispatcher."""

    def __init__(
        self,
        artifact_path,
        workers: int = 4,
        *,
        base=None,
        expected_epoch: Optional[int] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        clock: Optional[ServingClock] = None,
        auto_respawn: bool = True,
        start_timeout: float = DEFAULT_START_TIMEOUT,
    ):
        if workers < 1:
            raise ValueError(f"a serving front-end needs >= 1 worker, got {workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.artifact_path = str(artifact_path)
        self.workers = workers
        self.max_batch = max_batch
        self.clock = clock if clock is not None else ServingClock()
        self.auto_respawn = auto_respawn
        self.start_timeout = start_timeout
        # Worker processes are forked where possible: the fork inherits the
        # already-imported interpreter, so a worker's cold-start cost is the
        # artifact load itself, matching the bench's cold-start story.
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._mp = multiprocessing.get_context()
        self._spec: Tuple[str, Optional[str], Optional[int]] = (
            self.artifact_path,
            str(base) if base is not None else None,
            expected_epoch,
        )
        self._lock = threading.Lock()
        self._state_changed = threading.Condition(self._lock)
        self._slots: Dict[int, _WorkerSlot] = {}
        #: Queries no worker has room for yet, grouped by weight vector.
        self._pending: Dict[tuple, List[ServingTicket]] = {}
        self._running = False
        self._ticket_counter = 0
        self._batch_counter = 0
        self._cursor = 0
        self._swap_pending: set = set()
        self._swap_errors: List[str] = []
        self._submitted = 0
        self._requeued = 0
        self._wake_reader = None
        self._wake_writer = None
        self._collector: Optional[threading.Thread] = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ServingFrontEnd":
        """Fork the workers, wait for every cold start, begin dispatching."""
        if self._running:
            raise RuntimeError("front-end already started")
        self._wake_reader, self._wake_writer = self._mp.Pipe(duplex=False)
        with self._lock:
            self._running = True
            for worker_id in range(self.workers):
                self._slots[worker_id] = _WorkerSlot(worker_id=worker_id)
                self._spawn_locked(worker_id, count_respawn=False)
        self._collector = threading.Thread(
            target=self._collector_loop, name="serving-collector", daemon=True
        )
        self._collector.start()
        deadline = self.clock.now() + self.start_timeout
        with self._state_changed:
            while True:
                errors = [
                    slot.start_error
                    for slot in self._slots.values()
                    if slot.start_error is not None
                ]
                if errors:
                    break
                if all(slot.ready for slot in self._slots.values()):
                    return self
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    errors = ["timed out waiting for workers to cold-start"]
                    break
                self._state_changed.wait(remaining)
        self.stop()
        raise ConstructionError(
            "serving front-end failed to start: " + "; ".join(errors)
        )

    def stop(self, timeout: float = 10.0) -> None:
        """Stop dispatching, reap the workers, and resolve every ticket still
        pending or owed with ``error="front-end stopped"``."""
        with self._lock:
            if not self._running and not self._slots:
                return
            self._running = False
            slots = list(self._slots.values())
            for slot in slots:
                self._send_locked(slot, ("stop",))
            self._fail_unresolved_locked("front-end stopped")
            self._wake_locked()
        if self._collector is not None:
            self._collector.join(timeout)
            self._collector = None
        for slot in slots:
            if slot.process is not None:
                slot.process.join(timeout)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(timeout)
            if slot.conn is not None:
                slot.conn.close()
                slot.conn = None
        for end in (self._wake_reader, self._wake_writer):
            if end is not None:
                end.close()
        self._wake_reader = self._wake_writer = None

    def __enter__(self) -> "ServingFrontEnd":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------ submission
    def submit(self, query: AnalyticQuery) -> ServingTicket:
        """Enqueue one query; returns its ticket immediately (open loop).

        With a worker that has room, the query is already dispatched when
        this returns.
        """
        with self._lock:
            if not self._running:
                raise RuntimeError("front-end is not running")
            ticket = self._new_ticket_locked(query)
            self._pending.setdefault(tuple(query.weights), []).append(ticket)
            self._fill_locked()
        return ticket

    def submit_many(self, queries: Sequence[AnalyticQuery]) -> List[ServingTicket]:
        return [self.submit(query) for query in queries]

    def flush(self) -> None:
        """Hand pending groups to every worker that has room."""
        with self._lock:
            self._fill_locked()

    def drain(self, tickets: Sequence[ServingTicket], timeout: float = 30.0) -> None:
        """Flush and wait until every ticket resolves (raises on timeout)."""
        self.flush()
        pending = wait_all(tickets, timeout, self.clock)
        if pending:
            raise TimeoutError(
                f"{len(pending)} of {len(tickets)} queries unresolved after {timeout}s"
            )

    # ------------------------------------------------------------- hot swap
    def broadcast_swap(
        self,
        path,
        *,
        base=None,
        expected_epoch: Optional[int] = None,
        timeout: float = 30.0,
    ) -> SwapBroadcast:
        """Hot-swap every worker to a newer epoch without dropping queries.

        The swap message rides each worker's FIFO pipe behind any
        already-dispatched batches, so in-flight work finishes on its entry
        epoch.  Workers that die mid-swap are respawned from the *new*
        artifact (the respawn spec is updated first), which counts as
        swapped once their cold start completes.
        """
        if expected_epoch is None:
            from repro.core.artifact import load_public_parameters

            expected_epoch = load_public_parameters(path).epoch
        with self._lock:
            if not self._running:
                raise RuntimeError("front-end is not running")
            self._spec = (
                str(path),
                str(base) if base is not None else None,
                expected_epoch,
            )
            self._swap_errors = []
            self._swap_pending = {
                slot.worker_id for slot in self._slots.values() if slot.ready
            }
            for slot in self._slots.values():
                if slot.ready:
                    self._send_locked(
                        slot, ("swap", str(path), self._spec[1], expected_epoch)
                    )
        deadline = self.clock.now() + timeout
        with self._state_changed:
            while self._swap_pending:
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    break
                self._state_changed.wait(remaining)
            timed_out = tuple(sorted(self._swap_pending))
            self._swap_pending = set()
            swapped = tuple(
                sorted(
                    slot.worker_id
                    for slot in self._slots.values()
                    if slot.epoch == expected_epoch
                )
            )
            return SwapBroadcast(
                new_epoch=expected_epoch,
                swapped=swapped,
                errors=tuple(self._swap_errors),
                timed_out=timed_out,
            )

    # ------------------------------------------------------- fault injection
    def inject_crash(self, worker_id: int) -> None:
        """Deterministically kill one worker (it dies mid-queue, un-flushed)."""
        with self._lock:
            self._send_locked(self._slot_locked(worker_id), ("crash", 1))

    def respawn(self, worker_id: int) -> None:
        """Manually respawn a dead worker from the current artifact spec."""
        with self._state_changed:
            slot = self._slot_locked(worker_id)
            dead = slot.process
            if dead is not None and dead.is_alive():
                raise RuntimeError(f"worker {worker_id} is still alive")
            # Only the collector reads worker pipes: let it handle the dead
            # worker's last replies (its sentinel has fired) before requeueing.
            while slot.conn is not None and slot.process is dead and self._running:
                self._state_changed.wait()
            if slot.process is not dead:
                return  # the collector already respawned it (auto_respawn)
            self._recover_worker_locked(slot)
            self._wake_locked()

    # ------------------------------------------------------------ resilience
    def replica_pool(self, **pool_kwargs):
        """The workers as a :class:`repro.resilience.pool.ReplicaPool`.

        Each worker becomes a :class:`WorkerProxy` replica with the server
        ``execute`` surface; pool semantics (round-robin, quarantine,
        half-open probing) and :class:`ResilientClient` verification then
        apply to worker processes exactly as to in-process servers.
        """
        from repro.resilience.pool import ReplicaPool

        return ReplicaPool(
            [WorkerProxy(self, worker_id) for worker_id in sorted(self._slots)],
            **pool_kwargs,
        )

    def wait_ready(self, worker_id: int, timeout: float = 30.0) -> bool:
        """Block until a worker reports ready (e.g. after a respawn).

        A respawned worker cold-starts from the artifact; callers that
        dispatch to it directly (``execute_on``) should wait here first.
        Returns ``False`` on timeout instead of raising so pollers can
        keep their own deadline policy.
        """
        with self._state_changed:
            slot = self._slot_locked(worker_id)
            deadline = self.clock.now() + timeout
            while not slot.ready:
                remaining = deadline - self.clock.now()
                if remaining <= 0.0 or not self._running:
                    return False
                self._state_changed.wait(remaining)
            return True

    def execute_on(
        self, worker_id: int, query: AnalyticQuery, timeout: float = 30.0
    ) -> WorkerReply:
        """One query straight to one worker, bypassing the batcher.

        The single-replica path :class:`WorkerProxy` builds on; it ignores
        the two-batch limit.  Raises :class:`QueryProcessingError` when the
        worker is down, errors or misses the deadline (all three are
        "replica fault" to a pool).
        """
        with self._lock:
            slot = self._slot_locked(worker_id)
            if not self._running:
                raise RuntimeError("front-end is not running")
            if not slot.ready:
                raise QueryProcessingError(f"worker {worker_id} is not serving")
            ticket = self._new_ticket_locked(query)
            self._dispatch_locked(slot, [ticket])
        if not ticket.wait(timeout):
            raise QueryProcessingError(
                f"worker {worker_id} missed the {timeout}s reply deadline"
            )
        if ticket.error is not None:
            raise QueryProcessingError(
                f"worker {worker_id} failed the query: {ticket.error}"
            )
        return ticket.reply

    # ------------------------------------------------------------ inspection
    def worker_stats(self) -> Dict[int, Dict[str, object]]:
        with self._lock:
            return {
                slot.worker_id: {
                    "pid": None if slot.process is None else slot.process.pid,
                    "ready": slot.ready,
                    "epoch": slot.epoch,
                    "served": slot.served,
                    "batches": slot.batches,
                    "busy_seconds": slot.busy_seconds,
                    "respawns": slot.respawns,
                    "outstanding": slot.outstanding_queries,
                    "outstanding_batches": len(slot.outstanding),
                }
                for slot in self._slots.values()
            }

    @property
    def pending(self) -> int:
        """Queries waiting in the front-end for a worker with room."""
        with self._lock:
            return sum(len(group) for group in self._pending.values())

    @property
    def submitted(self) -> int:
        return self._submitted

    @property
    def requeued(self) -> int:
        """Queries re-dispatched after their worker died (never dropped)."""
        return self._requeued

    def epochs(self) -> Dict[int, Optional[int]]:
        with self._lock:
            return {slot.worker_id: slot.epoch for slot in self._slots.values()}

    # ------------------------------------------------------------- internals
    def _slot_locked(self, worker_id: int) -> _WorkerSlot:
        try:
            return self._slots[worker_id]
        except KeyError:
            raise KeyError(f"no worker with id {worker_id}") from None

    def _new_ticket_locked(self, query: AnalyticQuery) -> ServingTicket:
        ticket = ServingTicket(
            ticket_id=self._ticket_counter,
            query=query,
            enqueued_at=self.clock.now(),
        )
        self._ticket_counter += 1
        self._submitted += 1
        return ticket

    def _spawn_locked(self, worker_id: int, *, count_respawn: bool) -> None:
        slot = self._slots[worker_id]
        path, base, expected_epoch = self._spec
        slot.conn, worker_end = self._mp.Pipe()
        slot.ready = False
        slot.start_error = None
        if count_respawn:
            slot.respawns += 1
        slot.process = self._mp.Process(
            target=worker_main,
            args=(path, base, expected_epoch, worker_end),
            daemon=True,
            name=f"serving-worker-{worker_id}",
        )
        slot.process.start()
        # Only the worker may hold its end: then the worker's exit closes
        # it everywhere, and a reply torn by the death reads as end of file
        # instead of blocking the collector.
        worker_end.close()

    def _send_locked(self, slot: _WorkerSlot, message: tuple) -> None:
        if slot.conn is None:
            return  # retired: the worker is dead and its queries requeued
        # A worker that died before its sentinel fired refuses the send
        # (BrokenPipeError); a batch stays in ``outstanding`` for recovery.
        with contextlib.suppress(OSError):
            slot.conn.send(message)

    def _wake_locked(self) -> None:
        """Make the collector re-read the set of pipes and sentinels."""
        if self._wake_writer is not None:
            self._wake_writer.send_bytes(b"")

    def _fill_locked(self) -> None:
        """Give the oldest pending weight groups to workers with room."""
        while self._pending:
            slot = self._pick_worker_locked()
            if slot is None:
                return  # every worker is full: coalesce until a reply frees one
            key = min(self._pending, key=lambda weights: self._pending[weights][0].ticket_id)
            group = self._pending[key]
            batch = group[: self.max_batch]
            del group[: self.max_batch]
            if not group:
                del self._pending[key]
            self._dispatch_locked(slot, batch)

    def _pick_worker_locked(self) -> Optional[_WorkerSlot]:
        """The least-loaded ready worker holding fewer than two batches."""
        open_slots = [
            slot
            for slot in self._slots.values()
            if slot.ready and len(slot.outstanding) < WORKER_BATCH_LIMIT
        ]
        if not open_slots:
            return None
        count = len(self._slots)
        chosen = min(
            open_slots,
            key=lambda slot: (
                slot.outstanding_queries,
                (slot.worker_id - self._cursor) % count,
            ),
        )
        self._cursor = (chosen.worker_id + 1) % count
        return chosen

    def _dispatch_locked(self, slot: _WorkerSlot, tickets: List[ServingTicket]) -> None:
        batch_id = self._batch_counter
        self._batch_counter += 1
        now = self.clock.now()
        for ticket in tickets:
            ticket.dispatched_at = now
        slot.outstanding[batch_id] = tickets
        self._send_locked(slot, ("batch", batch_id, [ticket.query for ticket in tickets]))

    def _recover_worker_locked(self, slot: _WorkerSlot) -> None:
        """Requeue a retired worker's owed queries ahead of newer ones, then respawn it."""
        orphans = [ticket for tickets in slot.outstanding.values() for ticket in tickets]
        slot.outstanding = {}
        for ticket in sorted(orphans, key=lambda ticket: ticket.ticket_id, reverse=True):
            self._pending.setdefault(tuple(ticket.query.weights), []).insert(0, ticket)
        self._requeued += len(orphans)
        if self._running:
            self._spawn_locked(slot.worker_id, count_respawn=True)
        self._fill_locked()

    def _fail_unresolved_locked(self, detail: str) -> None:
        now = self.clock.now()
        for group in self._pending.values():
            for ticket in group:
                ticket._resolve(now, None, error=detail)
        self._pending = {}
        for slot in self._slots.values():
            for tickets in slot.outstanding.values():
                for ticket in tickets:
                    ticket._resolve(now, slot.worker_id, error=detail)
            slot.outstanding = {}

    # --------------------------------------------------------------- thread
    def _collector_loop(self) -> None:
        """Resolve replies and detect worker deaths, blocking between events."""
        while True:
            with self._lock:
                if not self._running:
                    return
                watched = {}
                for slot in self._slots.values():
                    if slot.conn is not None:
                        watched[slot.conn] = (slot, slot.conn)
                        watched[slot.process.sentinel] = (slot, slot.conn)
            for ready in connection.wait([self._wake_reader, *watched]):
                if ready is self._wake_reader:
                    ready.recv_bytes()
                    continue
                slot, conn = watched[ready]
                if ready is conn:
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        pass  # the worker exited: handled as its sentinel
                    else:
                        with self._state_changed:
                            if slot.conn is conn:
                                self._on_message_locked(slot, message)
                                self._fill_locked()
                                self._state_changed.notify_all()
                        continue
                with self._state_changed:
                    if slot.conn is conn:
                        self._on_exit_locked(slot)

    def _on_exit_locked(self, slot: _WorkerSlot) -> None:
        """Retire a dead worker: its last replies first, then recovery."""
        while True:
            try:
                if not slot.conn.poll():
                    break
                message = slot.conn.recv()
            except (EOFError, OSError):
                break  # end of the stream, or a reply torn by the death
            self._on_message_locked(slot, message)
        slot.conn.close()
        slot.conn = None
        serving = slot.ready or bool(slot.outstanding)
        slot.ready = False
        self._swap_pending.discard(slot.worker_id)
        if serving and self.auto_respawn:
            self._recover_worker_locked(slot)
        self._state_changed.notify_all()

    def _on_message_locked(self, slot: _WorkerSlot, message: tuple) -> None:
        kind = message[0]
        if kind == "batch":
            _, batch_id, replies, service_seconds = message
            tickets = slot.outstanding.pop(batch_id, None)
            if tickets is None:
                return  # failed by stop() while the worker served it
            slot.batches += 1
            slot.busy_seconds += service_seconds
            now = self.clock.now()
            for ticket, reply in zip(tickets, replies):
                ticket._resolve(now, slot.worker_id, reply=reply)
            slot.served += len(tickets)
        elif kind == "batch-error":
            _, batch_id, detail = message
            now = self.clock.now()
            for ticket in slot.outstanding.pop(batch_id, ()):
                ticket._resolve(now, slot.worker_id, error=detail)
        elif kind == "ready":
            slot.ready = True
            slot.epoch = message[1]
        elif kind == "swapped":
            slot.epoch = message[1]
            self._swap_pending.discard(slot.worker_id)
        elif kind == "swap-error":
            self._swap_errors.append(f"worker {slot.worker_id}: {message[1]}")
            self._swap_pending.discard(slot.worker_id)
        elif kind == "start-error":
            slot.start_error = message[1]


class WorkerProxy:
    """One serving worker presented through the server ``execute`` surface.

    Makes a worker *process* a drop-in replica for
    :class:`repro.resilience.pool.ReplicaPool`: ``execute`` raises
    :class:`QueryProcessingError` when the worker is dead, errors or times
    out (the pool's "replica fault, try another one"), and ``epoch``
    exposes the worker's current ADS epoch for staleness accounting.
    """

    def __init__(self, frontend: ServingFrontEnd, worker_id: int, timeout: float = 30.0):
        self.frontend = frontend
        self.worker_id = worker_id
        self.timeout = timeout

    @property
    def epoch(self) -> Optional[int]:
        return self.frontend.epochs().get(self.worker_id)

    def execute(self, query: AnalyticQuery) -> QueryExecution:
        reply = self.frontend.execute_on(self.worker_id, query, timeout=self.timeout)
        return QueryExecution(
            query=reply.query,
            result=reply.result,
            verification_object=reply.verification_object,
            counters=reply.counters,
        )
