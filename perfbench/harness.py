"""Shared pieces of the benchmark.

The common ADS set-up every workload times as ``setup_s``, the seeded input
generators, the host record, timing summaries and the seed-determinism
self-check.  Everything here reaches the program through its public API
(``repro.core``, ``repro.serving``, ``repro.workloads``); nothing in
``src/repro`` knows it is being measured.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import os
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner
from repro.core.parallel import available_cores
from repro.core.server import Server
from repro.crypto.signer import make_signer
from repro.metrics.counters import Counters
from repro.metrics.sizes import DEFAULT_SIZE_MODEL
from repro.metrics.timing import percentile
from repro.serving.dispatcher import ServingFrontEnd
from repro.serving.traffic import TrafficConfig, generate_trace
from repro.workloads.generator import (
    WorkloadConfig,
    make_dataset,
    make_queries,
    make_query,
    make_template,
    make_weight_vector,
)

#: Records in the outsourced table (d = 1 uniform, as in the paper's figures).
N_RECORDS = 500
#: Common set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Serving worker processes (the 2-core host's ``nproc``).
SERVE_WORKERS = 2
#: Query kinds of the closed-loop workloads, taken in turn (top-k/range/kNN
#: at 50/30/20, as ``make_queries`` cycles its ``kinds``), and result size.
QUERY_KINDS = ("topk",) * 5 + ("range",) * 3 + ("knn",) * 2
RESULT_SIZE = 3
#: Leading queries of the stream compared with ``make_queries`` on every run.
STREAM_CHECK = 200
#: Leading queries over which exact per-query counts (VO bytes, hashes,
#: nodes) are averaged, so they repeat exactly however fast the host is.
EXACT_PREFIX = 1000
#: Flush policy of everything the benchmark persists.
FLUSH_POLICY = (
    "update journal appends fsync (enable_journal(fsync=True)); "
    "artifact publishes are atomic (temp file + fsync + rename)"
)


# ----------------------------------------------------------------- timing
def _per_block(values: Sequence[float], size: int, q: float) -> List[float]:
    """The ``q``-th percentile of each block of ``size`` consecutive samples."""
    return [percentile(values[i:i + size], q) for i in range(0, len(values) - size + 1, size)]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and p99 of a sample, with the counts a reader needs to trust them.

    The host's speed drifts by tens of percent over seconds, so a percentile
    of a whole run jumps with the share of the run spent in slow spells.
    Both are therefore taken per block of consecutive samples: ``p50`` is
    the mean of the medians of 250-sample blocks, ``p99`` the median of the
    p99s of 1,000-sample blocks (each with 10 samples beyond it), which one
    slow spell or collector pause in one block does not move.  With fewer
    than two blocks they are the plain percentiles of the whole sample.
    """
    medians = _per_block(values, 250, 50)
    tails = _per_block(values, 1000, 99)
    tail_sample = len(values) if len(tails) < 2 else 1000
    return {
        "p50": statistics.mean(medians) if len(medians) > 1 else percentile(values, 50),
        "p99": statistics.median(tails) if len(tails) > 1 else percentile(values, 99),
        "samples": len(values),
        "beyond_p99": tail_sample - -(-tail_sample * 99 // 100),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------- host
def cpu_jiffies() -> Optional[List[int]]:
    """The machine's CPU time by state (user ... steal), or None off Linux."""
    try:
        with open("/proc/stat") as stream:
            return [int(value) for value in stream.readline().split()[1:9]]
    except OSError:
        return None


def steal_share(before: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to other guests since ``before``.

    Runs with a high share were slowed by neighbours, not by the program.
    """
    after = cpu_jiffies()
    if before is None or after is None:
        return None
    spent = [now - then for now, then in zip(after, before)]
    return spent[7] / sum(spent) if sum(spent) else 0.0


def host_record() -> Dict[str, object]:
    """Where the numbers came from; latencies are this machine's, not a device's."""
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "available_cores": available_cores(),
        "affinity": affinity,
        "ram_gb": round(ram / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "flush_policy": FLUSH_POLICY,
    }


# ----------------------------------------------------------------- inputs
def make_table(seed: int):
    """The seeded uniform d = 1 table and its utility template."""
    workload = WorkloadConfig(n_records=N_RECORDS, dimension=1, seed=seed)
    return workload, make_dataset(workload), make_template(workload)


def query_stream(dataset, template, seed: int) -> Iterator:
    """``make_queries(kinds=QUERY_KINDS, seed=seed)`` as an endless stream.

    The same draws in the same order, but the table's scores under each
    weight vector come from one matvec instead of 500 ``evaluate`` calls:
    about 0.09 ms a query against 1.3 ms on a 2-core host, or 12 s saved per
    10,000-query run.  :func:`determinism_check` compares the leading
    queries with ``make_queries`` on every run.
    """
    rng = random.Random(seed)
    functions = template.functions_for(dataset)
    coefficients = np.array([function.coefficients for function in functions])
    constants = np.array([function.constant for function in functions])
    for kind in itertools.cycle(QUERY_KINDS):
        vector = make_weight_vector(template, rng)
        scores = sorted((coefficients @ np.asarray(vector) + constants).tolist())
        yield make_query(kind, vector, scores, rng, RESULT_SIZE)


def traffic(dataset, template, seed: int, rate: float, count: int):
    """The open-loop trace with ``generate_trace``'s default skew.

    The draws do not depend on ``rate`` (it only scales the exponential
    gaps), so every rate of one seed offers a prefix of the same queries.
    """
    return generate_trace(
        dataset, template, TrafficConfig(rate=rate, count=count, seed=seed)
    )


def digest(items) -> str:
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(repr(item).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def input_fingerprints(seed: int) -> Dict[str, str]:
    """Digests of every seeded input: table, query stream, traffic trace."""
    _, dataset, template = make_table(seed)
    stream = query_stream(dataset, template, seed)
    return {
        "dataset": digest(record for record in dataset),
        "queries": digest(itertools.islice(stream, STREAM_CHECK)),
        "trace": traffic(dataset, template, seed, 1000.0, 200).fingerprint(),
    }


def determinism_check(seed: int) -> List[str]:
    """Same seed, byte-identical inputs; another seed, different ones.

    Also checks that the query stream is the program's own ``make_queries``.
    """
    first, again, other = (
        input_fingerprints(seed),
        input_fingerprints(seed),
        input_fingerprints(seed + 1),
    )
    problems = [f"{name} differs between two generations of seed {seed}"
                for name in first if first[name] != again[name]]
    problems += [f"{name} is identical for seeds {seed} and {seed + 1}"
                 for name in first if first[name] == other[name]]
    _, dataset, template = make_table(seed)
    reference = make_queries(dataset, template, count=STREAM_CHECK, kinds=QUERY_KINDS,
                             result_size=RESULT_SIZE, seed=seed)
    if digest(reference) != first["queries"]:
        problems.append("the query stream differs from make_queries")
    return problems


# ------------------------------------------------------------------ setup
@dataclass
class Deployment:
    """One common set-up: what the owner published and who serves it."""

    base_path: str
    server: Server
    client: Client
    owner: Optional[DataOwner]
    frontend: Optional[ServingFrontEnd]
    seconds: float
    exact: Dict[str, int] = field(default_factory=dict)

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.stop()
            self.frontend = None


def deploy(
    seed: int, workdir: str, *, keep_owner: bool, serve: bool, span=None
) -> Deployment:
    """The common set-up, timed end to end.

    Table, seeded RSA-2048 key, one-signature build with ``SystemConfig``
    defaults, ``publish``, cold start of a server and a client from the
    artifact and, for the serving workload, ``ServingFrontEnd.start``.
    """
    span = span or (lambda name: contextlib.nullcontext())
    base_path = os.path.join(workdir, "ads-epoch0.npz")
    started = time.perf_counter()
    _, dataset, template = make_table(seed)
    with span("crypto.keygen"):
        keypair = make_signer("rsa", rng=random.Random(seed))
    owner = DataOwner(dataset, template, config=SystemConfig(), keypair=keypair)
    owner.publish(base_path)
    build = owner.counters.snapshot()
    if not keep_owner:
        owner = None  # the owner's eager ADS is garbage before the cold start
    server = Server.from_artifact(base_path)
    client = Client.from_artifact(base_path)
    frontend = ServingFrontEnd(base_path, workers=SERVE_WORKERS).start() if serve else None
    seconds = time.perf_counter() - started
    exact = {
        "logical_hashes": build["hash_operations"],
        "physical_hashes": build["physical_hash_operations"],
        "signatures": build["signatures_created"],
        "artifact_bytes": os.path.getsize(base_path),
    }
    return Deployment(
        base_path=base_path,
        server=server,
        client=client,
        owner=owner,
        frontend=frontend,
        seconds=seconds,
        exact=exact,
    )


def deploy_repeatedly(seed: int, workdir: str, repeats: int, after=None, **kwargs):
    """Set up ``repeats`` times, keep the last; returns it with every set-up time.

    ``after(deployment, index)`` runs on each deployment before the next
    set-up replaces it, so a workload can spread its in-process queries over
    the whole run instead of one stretch of it.  Each set-up must build
    exactly the same ADS (hash, signature and byte counts), which is the
    in-run half of the determinism self-check.
    """
    times: List[float] = []
    deployment = None
    for index in range(repeats):
        if deployment is not None:
            previous = deployment.exact
            deployment.close()
            deployment = None
            gc.collect()
        deployment = deploy(seed, workdir, **kwargs)
        times.append(deployment.seconds)
        if index and deployment.exact != previous:
            raise RuntimeError(
                f"set-up is not deterministic: {previous} then {deployment.exact}"
            )
        if after is not None:
            after(deployment, index)
    return deployment, times


def share(total: int, parts: int, index: int) -> int:
    """Size of part ``index`` when ``total`` items split as evenly as possible."""
    return total // parts + (1 if index < total % parts else 0)


# ---------------------------------------------------------------- queries
@dataclass
class QueryStats:
    """Closed-loop execute + verify measurements of one query stream."""

    latencies: List[float] = field(default_factory=list)
    vo_bytes: List[int] = field(default_factory=list)
    vo_hash_entries: List[int] = field(default_factory=list)
    nodes: List[int] = field(default_factory=list)
    client_hashes: List[int] = field(default_factory=list)
    signatures_verified: List[int] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    failed: int = 0
    #: Wall time of the closed loops, per-query bookkeeping included.
    wall: float = 0.0

    def exact(self) -> Dict[str, float]:
        """Per-query means of the exact counts over the leading queries."""
        def mean(values):
            head = values[:EXACT_PREFIX]
            return sum(head) / len(head)

        return {
            "vo_bytes": mean(self.vo_bytes),
            "vo_hash_entries": mean(self.vo_hash_entries),
            "server_nodes": mean(self.nodes),
            "client_hashes": mean(self.client_hashes),
            "signatures_verified": mean(self.signatures_verified),
        }


def run_query(server: Server, client: Client, query, stats: QueryStats):
    """One verified query, timed from execute to verdict; returns the execution."""
    counters = Counters()
    hits, misses = server.score_cache_hits, server.score_cache_misses
    started = time.perf_counter()
    execution = server.execute(query)
    report = client.verify(
        query, execution.result, execution.verification_object, counters=counters
    )
    stats.latencies.append(time.perf_counter() - started)
    stats.cache_hits += server.score_cache_hits - hits
    stats.cache_misses += server.score_cache_misses - misses
    if not report.is_valid:
        stats.failed += 1
    vo = execution.verification_object
    if len(stats.vo_bytes) < EXACT_PREFIX:
        model = DEFAULT_SIZE_MODEL.with_signature_size(len(vo.root_signature))
        stats.vo_bytes.append(vo.size_bytes(1, model))
        stats.vo_hash_entries.append(vo.hash_entries())
        stats.nodes.append(execution.counters.nodes_traversed)
        stats.client_hashes.append(counters.hash_operations)
        stats.signatures_verified.append(counters.signatures_verified)
    return execution
