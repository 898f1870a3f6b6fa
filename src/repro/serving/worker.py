"""The serving worker process: one cold-started server behind one pipe.

Each worker is a separate OS process that cold-starts its own
:class:`repro.core.server.Server` from the shared published artifact
(:meth:`Server.from_artifact` -- no re-hashing, own score cache, own
counters) and then loops over control messages from its pipe:

* ``("batch", batch_id, queries)`` -- run :meth:`Server.execute_batch`
  (same-weight queries share one subdomain search and one scoring pass) and
  reply with one picklable :class:`WorkerReply` per query, in order;
* ``("swap", path, base, expected_epoch)`` -- live hot-swap to a newer
  epoch's artifact; batches sent before the swap message finish on the
  entry epoch (the pipe is FIFO), so a broadcast swap never tears a query;
* ``("crash", exit_code)`` -- die immediately via ``os._exit`` (the
  dispatcher's deterministic crash injection; the process vanishes exactly
  like a SIGKILL);
* ``("stop",)`` -- exit cleanly.

The worker receives and replies on its own pipe directly, with no queue
feeder thread: a death can tear at most its own last reply.  Replies are
plain tuples/dataclasses of results, verification objects and counters --
everything the front-end needs to client-verify the answer -- and cross the
process boundary by pickling.  The worker never consults the wall clock
except through ``time.perf_counter`` service-duration stamps (RL010:
scheduling decisions stay deterministic; durations only feed the
utilisation report).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.errors import ConstructionError, QueryProcessingError
from repro.core.queries import AnalyticQuery
from repro.core.results import QueryResult
from repro.core.server import Server
from repro.metrics.counters import Counters

__all__ = ["WorkerReply", "worker_main"]


@dataclass(frozen=True)
class WorkerReply:
    """One query's answer as shipped back over the worker's pipe."""

    query: AnalyticQuery
    result: QueryResult
    verification_object: object
    counters: Counters
    epoch: int

    @property
    def nodes_traversed(self) -> int:
        return self.counters.nodes_traversed


def _serve_batch(server: Server, conn, message: Tuple) -> None:
    _, batch_id, queries = message
    started = time.perf_counter()
    try:
        executions = server.execute_batch(queries)
    except QueryProcessingError as err:
        conn.send(("batch-error", batch_id, str(err)))
        return
    service_seconds = time.perf_counter() - started
    epoch = server.epoch
    replies = tuple(
        WorkerReply(
            query=execution.query,
            result=execution.result,
            verification_object=execution.verification_object,
            counters=execution.counters,
            epoch=epoch,
        )
        for execution in executions
    )
    conn.send(("batch", batch_id, replies, service_seconds))


def worker_main(
    artifact_path: str,
    base: Optional[str],
    expected_epoch: Optional[int],
    conn,
) -> None:
    """Process entry point: cold-start from the artifact, then serve.

    ``conn`` is the worker's end of its pipe to the front-end.  Sends
    ``("ready", epoch)`` once the artifact loaded (the dispatcher's start
    barrier), ``("start-error", message)`` when it cannot load, and then
    one reply per batch or swap until ``stop`` or ``crash``.
    """
    try:
        server = Server.from_artifact(
            artifact_path, base=base, expected_epoch=expected_epoch
        )
    except ConstructionError as err:
        conn.send(("start-error", str(err)))
        return
    conn.send(("ready", server.epoch))
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "batch":
            _serve_batch(server, conn, message)
        elif kind == "swap":
            _, path, swap_base, swap_epoch = message
            try:
                report = server.swap_epoch_from_artifact(
                    path, base=swap_base, expected_epoch=swap_epoch
                )
            except ConstructionError as err:
                conn.send(("swap-error", str(err)))
            else:
                conn.send(("swapped", report.new_epoch))
        elif kind == "crash":
            # Deterministic fault injection: die via ``os._exit`` with no
            # farewell, like a SIGKILL.  The front-end detects the death
            # through the process sentinel and requeues whatever this
            # worker still owed, including the batches behind this message.
            os._exit(message[1])
        elif kind == "stop":
            return
