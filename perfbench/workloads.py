"""The three workloads: query-mix, owner-churn and serve-open.

Each takes ``(seed, seconds, workdir, tracer, repeats)`` and returns an
:class:`Outcome`: the end-to-end figures it measures (by the names the
report prints), the exact counts, the attempt and failure tallies and the
per-layer observations that need no tracer (worker statistics, ticket
timestamps, update reports).  ``tracer`` is ``None`` on the untraced run.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.client import Client
from repro.core.records import Record
from repro.serving.dispatcher import ServingFrontEnd

from harness import (
    N_RECORDS,
    SERVE_WORKERS,
    QueryStats,
    deploy_repeatedly,
    make_table,
    query_stream,
    run_query,
    share,
    summarize,
    traffic,
)

#: query-mix: verified queries per second of ``--seconds``.
QUERY_MIX_PER_SECOND = 1000
#: owner-churn: update batches per run (fixed: a delta grows with the
#: epochs since its base) and verified queries per second of ``--seconds``.
CHURN_BATCHES = 3
CHURN_QUERIES_PER_SECOND = 1000

#: serve-open: the two fixed offered rates (queries/s) and the share of
#: ``--seconds`` each runs for; GATED_RATE's served median is also
#: ``query_p50_ms``.  The unpaced phase, whose served rate is
#: ``verified_qps``: queries in flight and queries per second of
#: ``--seconds``.  Rate-search shape and pass criteria.
SERVE_RATES = (("r200", 200.0, 0.8), ("r2000", 2000.0, 0.2))
GATED_RATE = "r200"
UNPACED_WINDOW = 64
UNPACED_QUERIES_PER_SECOND = 2000
SEARCH_STEPS = 5
SEARCH_QUERIES_PER_SECOND = 100
SEARCH_CEILING = 6000.0
P99_LIMIT_S = 0.025
ACHIEVED_FLOOR = 0.95
#: Share of served answers client-verified after each phase (seeded sample).
VERIFY_SAMPLE = 0.02
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one pass of a workload measured."""

    setup_times: List[float]
    e2e: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    exact: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _phase(tracer, name):
    return tracer.in_phase(name) if tracer is not None else contextlib.nullcontext()


def _deploy(seed, workdir, tracer, repeats, after=None, **kwargs):
    with _phase(tracer, "setup"):
        deployment, times = deploy_repeatedly(
            seed, workdir, repeats, after=after,
            span=tracer.span if tracer is not None else None, **kwargs,
        )
    if tracer is not None:
        tracer.add_measured("setup", sum(times))
    return deployment, times


def _closed_loop(server, client, queries, stats: QueryStats, tracer=None) -> List[tuple]:
    """Verified queries back to back, each timed from execute to verdict.

    Returns each answer's record ids.
    """
    if tracer is not None:
        tracer.wrap_verifier(client.parameters.verifier)
    spent = 0.0
    answers = []
    started = time.perf_counter()
    with _phase(tracer, "query"):
        for query in queries:
            if tracer is not None:
                tracer.query_id = len(stats.latencies)
            execution = run_query(server, client, query, stats)
            answers.append(tuple(record.record_id for record in execution.result.records))
            spent += stats.latencies[-1]
    stats.wall += time.perf_counter() - started
    if tracer is not None:
        tracer.query_id = -1
        tracer.add_measured("query", spent)
    return answers


def _latency_figures(outcome: Outcome, latencies, label: str) -> None:
    """``query_p50_ms`` and ``query_p99_ms`` of the workload's own queries."""
    timing = summarize(latencies)
    outcome.e2e["query_p50_ms"] = timing["p50"] * 1e3
    outcome.e2e["query_p99_ms"] = timing["p99"] * 1e3
    outcome.samples[label] = timing["samples"]
    outcome.samples[f"{label}_beyond_p99"] = timing["beyond_p99"]


def _query_figures(outcome: Outcome, stats: QueryStats) -> None:
    """Exact counts and tallies of the in-process queries."""
    outcome.exact.update(stats.exact())
    outcome.e2e["vo_bytes"] = outcome.exact["vo_bytes"]
    outcome.attempted += len(stats.latencies)
    outcome.failed += stats.failed
    lookups = stats.cache_hits + stats.cache_misses
    outcome.layers["server.score_cache_hit_ratio"] = (
        stats.cache_hits / lookups if lookups else 0.0
    )


# -------------------------------------------------------------- query-mix
def query_mix(seed: int, seconds: float, workdir: str, tracer=None, repeats: int = 1):
    """One in-process client, closed loop, a fresh weight vector per query.

    The queries are shared out over the set-ups: each deployment serves its
    part from a cold start, so the samples span the whole run.
    """
    _, dataset, template = make_table(seed)
    stream = query_stream(dataset, template, seed)
    total = int(QUERY_MIX_PER_SECOND * seconds)
    stats = QueryStats()

    def serve_share(deployment, index):
        queries = [next(stream) for _ in range(share(total, repeats, index))]
        _closed_loop(deployment.server, deployment.client, queries, stats, tracer)

    deployment, times = _deploy(
        seed, workdir, tracer, repeats, after=serve_share, keep_owner=False, serve=False
    )
    outcome = Outcome(setup_times=times, exact=dict(deployment.exact))
    _query_figures(outcome, stats)
    _latency_figures(outcome, stats.latencies, "query")
    outcome.e2e["verified_qps"] = len(stats.latencies) / stats.wall
    deployment.close()
    return outcome


# ------------------------------------------------------------ owner-churn
def owner_churn(seed: int, seconds: float, workdir: str, tracer=None, repeats: int = 1):
    """Journaled update batches, delta publish and epoch swap beside verified reads.

    Reads run on every deployment before its first batch and after every
    swap, from a client refreshed from the newest delta; the batches run on
    the last deployment's owner.
    """
    workload, dataset, template = make_table(seed)
    stream = query_stream(dataset, template, seed)
    total = int(CHURN_QUERIES_PER_SECOND * seconds)
    clusters = repeats + CHURN_BATCHES
    stats = QueryStats()

    def read(server, client, cluster):
        queries = [next(stream) for _ in range(share(total, clusters, cluster))]
        _closed_loop(server, client, queries, stats, tracer)

    deployment, times = _deploy(
        seed, workdir, tracer, repeats, keep_owner=True, serve=False,
        after=lambda deployment, index: read(deployment.server, deployment.client, index),
    )
    outcome = Outcome(setup_times=times, exact=dict(deployment.exact))
    owner, server = deployment.owner, deployment.server
    owner.enable_journal(os.path.join(workdir, "updates.journal"), fsync=True)
    rng = random.Random(seed + 1)
    low, high = workload.value_range
    lags: List[float] = []
    delta_bytes: List[int] = []
    strategies: List[str] = []
    previous: Optional[str] = None
    next_id = N_RECORDS
    for batch in range(CHURN_BATCHES):
        if batch % 2 == 0:
            record = Record(
                record_id=next_id,
                values=(rng.uniform(low, high), rng.uniform(low, high)),
                label=f"churn-{batch}",
            )
            change = {"inserts": (record,)}
        else:
            change = {"deletes": (next_id,)}
            next_id += 1
        path = os.path.join(workdir, f"ads-epoch{batch + 1}.npz")
        with _phase(tracer, "update"):
            started = time.perf_counter()
            report = owner.apply_updates(**change)
            publish = owner.publish(path, base=deployment.base_path)
            server.swap_epoch_from_artifact(
                path, base=deployment.base_path, expected_epoch=owner.epoch
            )
            lags.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.add_measured("update", lags[-1])
        strategies.append(report.strategy)
        delta_bytes.append(os.path.getsize(path))
        if publish.mode != "delta":
            outcome.notes.append(f"batch {batch}: publish fell back to {publish.mode}")
        client = Client.from_artifact(path)
        if client.parameters.epoch != owner.epoch or server.epoch != owner.epoch:
            outcome.failed += 1
            outcome.notes.append(f"batch {batch}: epochs disagree after the swap")
        outcome.attempted += 1
        if previous is not None:
            os.remove(previous)
        previous = path
        read(server, client, repeats + batch)
    _query_figures(outcome, stats)
    _latency_figures(outcome, stats.latencies, "read")
    # Reads per second of the whole read-and-write loop: a slower update
    # (journal, apply, delta publish, swap) leaves fewer reads per second.
    outcome.e2e["verified_qps"] = len(stats.latencies) / (stats.wall + sum(lags))
    outcome.e2e["update_p50_s"] = statistics.median(lags)
    outcome.e2e["delta_mb"] = statistics.mean(delta_bytes) / 1e6
    outcome.samples["update"] = len(lags)
    outcome.exact["delta_bytes"] = delta_bytes
    outcome.layers["update.incremental_ratio"] = strategies.count("incremental") / len(strategies)
    outcome.notes.append(f"update lags (s): {[round(lag, 3) for lag in lags]}")
    deployment.close()
    return outcome


# ------------------------------------------------------------- serve-open
@dataclass
class Phase:
    """What one serving phase measured.

    Open loop, each query is timed from its scheduled instant; unpaced, from
    its send.
    """

    offered: float
    count: int
    latencies: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    replies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    failed: int = 0
    achieved: float = 0.0
    wall: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.failed == 0
            and summarize(self.latencies)["p99"] <= P99_LIMIT_S
            and self.achieved >= ACHIEVED_FLOOR * self.offered
        )


def _worker_totals(frontend) -> Dict[str, float]:
    stats = frontend.worker_stats().values()
    return {
        key: sum(float(stat[key]) for stat in stats)
        for key in ("served", "batches", "busy_seconds", "respawns")
    }


def _drive(frontend, trace, expected, client, rng, window: Optional[int] = None) -> Phase:
    """Replay ``trace``; check every reply, then release it.

    Open loop (no ``window``), each query is sent at its scheduled instant.
    Unpaced, the next query is sent as soon as fewer than ``window`` are in
    flight.  Each reply's record ids are compared with the in-process
    reference as soon as its ticket resolves; a seeded sample is kept and
    client-verified after the phase, off the timed path.  Nothing else
    holds a reply.
    """
    clock = frontend.clock
    arrivals = trace.arrivals
    offered = 0.0 if window else (len(arrivals) - 1) / (arrivals[-1].offset - arrivals[0].offset)
    phase = Phase(offered=offered, count=len(arrivals))
    sample = set(rng.sample(range(len(trace)), max(1, int(VERIFY_SAMPLE * len(trace)))))
    held = []
    pending: deque = deque()
    done = []
    before = _worker_totals(frontend)

    def settle(ticket, due, index):
        reply = ticket.reply
        if ticket.error is not None or reply is None:
            phase.failed += 1
            return
        ids = tuple(record.record_id for record in reply.result.records)
        if reply.epoch != 0 or ids != expected[index]:
            phase.failed += 1
        phase.latencies.append(ticket.completed_at - due)
        phase.queue_waits.append(ticket.dispatched_at - ticket.enqueued_at)
        phase.replies.append(ticket.completed_at - ticket.dispatched_at)
        done.append(ticket.completed_at)
        if index in sample:
            held.append((ticket.query, reply))

    def settle_head(timeout: float) -> None:
        ticket = pending[0][0]
        if ticket.wait(timeout):
            settle(*pending.popleft())
        else:
            pending.popleft()
            phase.failed += 1  # dropped: never answered within the deadline

    start = clock.now() + 0.01
    for index, arrival in enumerate(arrivals):
        due = None
        if window:
            while len(pending) >= window:
                settle_head(DRAIN_TIMEOUT_S)
        else:
            due = start + arrival.offset
            while True:
                while pending and pending[0][0].done:
                    settle(*pending.popleft())
                remaining = due - clock.now()
                if remaining <= 0:
                    break
                time.sleep(remaining)
        ticket = frontend.submit(arrival.query)
        due = ticket.enqueued_at if due is None else due
        phase.lateness.append(ticket.enqueued_at - due)
        pending.append((ticket, due, index))
    frontend.flush()
    deadline = clock.now() + DRAIN_TIMEOUT_S
    while pending:
        settle_head(max(0.0, deadline - clock.now()))
    # Completion rate between the first and last reply.  Open loop, it
    # matches the offered rate when no backlog builds up.
    if len(done) > 1:
        phase.wall = max(done) - min(done)
        phase.achieved = (len(done) - 1) / phase.wall
    after = _worker_totals(frontend)
    phase.stats = {key: after[key] - before[key] for key in after}
    for query, reply in held:
        if not client.verify(query, reply.result, reply.verification_object).is_valid:
            phase.failed += 1
    return phase


def serve_open(seed: int, seconds: float, workdir: str, tracer=None, repeats: int = 1):
    """Open-loop Poisson traffic through the multi-worker front-end.

    After the set-ups, the last deployment's front-end is stopped and every
    distinct query of the trace is answered and client-verified in process:
    the reference each served reply is checked against.  Serving then starts
    a fresh front-end and runs the fixed-rate phases, an unpaced phase and
    the rate search.
    """
    _, dataset, template = make_table(seed)
    fixed = [(label, rate, max(1, int(rate * part * seconds)))
             for label, rate, part in SERVE_RATES]
    search_count = int(SEARCH_QUERIES_PER_SECOND * seconds)
    unpaced_count = int(UNPACED_QUERIES_PER_SECOND * seconds)
    # Every served phase offers a prefix of the same queries.
    longest = traffic(dataset, template, seed, 1.0,
                      max([count for *_, count in fixed] + [search_count, unpaced_count]))
    queries = [arrival.query for arrival in longest.arrivals]

    deployment, times = _deploy(
        seed, workdir, tracer, repeats, keep_owner=False, serve=True
    )
    outcome = Outcome(setup_times=times, exact=dict(deployment.exact))
    # The dispatcher's threads would contend with the reference queries.
    deployment.close()
    distinct = list(dict.fromkeys(queries))
    stats = QueryStats()
    found = _closed_loop(deployment.server, deployment.client, distinct, stats, tracer)
    answers = dict(zip(distinct, found))
    expected = [answers[query] for query in queries]
    _query_figures(outcome, stats)
    # The served p99 is not steady enough to gate (see README), so the
    # gated p99 is the in-process one of the reference pass.
    reference = summarize(stats.latencies)
    outcome.e2e["query_p99_ms"] = reference["p99"] * 1e3
    outcome.samples["reference"] = reference["samples"]
    # The front-end shares this process: drop the in-process server, whose
    # materialized leaves would otherwise make every gen-2 collection of the
    # dispatcher's heap slow, before forking its workers.
    deployment.server = None
    gc.collect()
    client = deployment.client
    rng = random.Random(seed + 2)
    gc_before = len(tracer.gc_pauses) if tracer is not None else 0
    with ServingFrontEnd(deployment.base_path, workers=SERVE_WORKERS) as frontend:
        def run_phase(rate, count, window=None):
            trace = traffic(dataset, template, seed, rate, count)
            if any(a.query != b.query for a, b in zip(trace.arrivals, longest.arrivals)):
                raise RuntimeError("traffic at another rate offered different queries")
            with _phase(tracer, "serve"):
                phase = _drive(frontend, trace, expected, client, rng, window)
            outcome.attempted += phase.count
            outcome.failed += phase.failed
            return phase

        phases = {}
        for label, rate, count in fixed:
            phase = phases[label] = run_phase(rate, count)
            timing = summarize(phase.latencies)
            outcome.e2e[f"serve_p50_ms.{label}"] = timing["p50"] * 1e3
            outcome.e2e[f"serve_p99_ms.{label}"] = timing["p99"] * 1e3
            if label == GATED_RATE:
                outcome.e2e["query_p50_ms"] = outcome.e2e[f"serve_p50_ms.{label}"]
            outcome.samples[f"serve.{label}"] = timing["samples"]
            outcome.samples[f"serve.{label}_beyond_p99"] = timing["beyond_p99"]
            for name, values in (("queue_wait_ms", phase.queue_waits), ("reply_ms", phase.replies)):
                summary = summarize(values)
                outcome.layers[f"serving.{name}.p50.{label}"] = summary["p50"] * 1e3
                outcome.layers[f"serving.{name}.p99.{label}"] = summary["p99"] * 1e3
            outcome.layers[f"loadgen.lateness_p99_ms.{label}"] = (
                summarize(phase.lateness)["p99"] * 1e3
            )

        unpaced = run_phase(1.0, unpaced_count, window=UNPACED_WINDOW)
        outcome.e2e["verified_qps"] = unpaced.achieved
        outcome.samples["serve.unpaced"] = unpaced.count

        # Rate search: a fixed number of bisection steps between fixed rates.
        high_phase = phases["r2000"]
        low, high = (2000.0, SEARCH_CEILING) if high_phase.passed else (200.0, 2000.0)
        steps = []
        for _ in range(SEARCH_STEPS):
            rate = (low + high) / 2
            phase = run_phase(rate, search_count)
            steps.append((round(rate), phase.passed, round(summarize(phase.latencies)["p99"] * 1e3, 2)))
            low, high = (rate, high) if phase.passed else (low, rate)
        outcome.e2e["serve_max_qps"] = low
        outcome.notes.append(f"rate search (offered q/s, passed, p99 ms): {steps}")

        busy = sum(p.stats["busy_seconds"] for p in phases.values())
        served = sum(p.stats["served"] for p in phases.values())
        batches = sum(p.stats["batches"] for p in phases.values())
        outcome.layers["serving.service_ms_per_query"] = busy / served * 1e3 if served else 0.0
        outcome.layers["serving.batch_size_mean"] = served / batches if batches else 0.0
        outcome.layers["serving.worker_utilisation"] = (
            high_phase.stats["busy_seconds"] / (SERVE_WORKERS * high_phase.wall)
            if high_phase.wall else 0.0
        )
        outcome.layers["serving.requeued"] = float(frontend.requeued)
        outcome.layers["serving.respawns"] = _worker_totals(frontend)["respawns"]
        if tracer is not None:
            pauses = tracer.gc_pauses[gc_before:]
            outcome.layers["frontend.gc2_pauses"] = float(len(pauses))
            outcome.layers["frontend.gc2_pause_s"] = sum(pauses)
    outcome.notes.append(
        f"{len(answers)} distinct reference queries; verified sample "
        f"{VERIFY_SAMPLE:.0%} of served answers per phase"
    )
    return outcome


WORKLOADS = {
    "query-mix": query_mix,
    "owner-churn": owner_churn,
    "serve-open": serve_open,
}
