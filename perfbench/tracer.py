"""Spans around the program's public entry points, recorded from outside.

:meth:`Tracer.install` replaces a fixed list of functions and methods of
``repro`` with thin wrappers that record a span per call: name, start, end,
the enclosing span and the id of the query being served.  Spans stay in
memory; :meth:`Tracer.write` dumps them when the run ends.  The untraced
run never constructs a tracer, so it measures the unmodified program.

A layer's *self time* is its span minus the time covered by its child
spans.  Spans are recorded only in the benchmark's own process and thread:
serving workers are forked from a traced process and inherit the wrappers,
which then call straight through.  Gen-2 collections are counted in every
thread of the benchmark's process: a collection runs in the thread that
triggered it, and the front-end's collector and pump threads allocate too.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

import repro.core.artifact as artifact_module
import repro.core.server as server_module
import repro.ifmh.propagation as propagation_module
import repro.ifmh.updates as updates_module
from repro.core.client import Client
from repro.core.owner import DataOwner
from repro.core.server import Server
from repro.ifmh.ifmh_tree import IFMHTree
from repro.itree.itree import ITree
from repro.merkle.arena import DeltaForestHasher
from repro.merkle.engine import MerkleBuildEngine
from repro.resilience.journal import UpdateJournal
from repro.serving.dispatcher import ServingFrontEnd

#: (holder, attribute, span name) of every wrapped entry point, by layer.
ENTRY_POINTS: Tuple[Tuple[object, str, str], ...] = (
    # repro.core: owner, server, client, artifact
    (DataOwner, "__init__", "owner.build"),
    (DataOwner, "apply_updates", "owner.apply_updates"),
    (DataOwner, "publish", "artifact.publish"),
    (artifact_module, "load_artifact", "artifact.load"),
    (Server, "execute", "server.execute"),
    (Server, "swap_epoch_from_artifact", "server.swap"),
    (Client, "verify", "client.verify"),
    # repro.geometry / repro.itree
    (ITree, "__init__", "itree.build"),
    # repro.merkle
    (MerkleBuildEngine, "build_forest", "merkle.forest"),
    # repro.ifmh
    (IFMHTree, "__init__", "ifmh.assemble"),
    (propagation_module, "propagate_batched", "ifmh.propagate"),
    (IFMHTree, "search", "ifmh.search"),
    (IFMHTree, "leaf_scores", "ifmh.score"),
    (IFMHTree, "to_arrays", "ifmh.to_arrays"),
    (updates_module, "apply_incremental_update", "ifmh.update_apply"),
    # repro.queryproc and VO construction, under the names repro.core.server uses
    (server_module, "select_window", "queryproc.window"),
    (server_module, "build_verification_object", "ifmh.vo_build"),
    # repro.resilience
    (UpdateJournal, "append_batch", "resilience.journal_append"),
    # repro.serving
    (ServingFrontEnd, "start", "serving.start"),
)

#: Fields of a recorded span, a plain tuple appended when the span closes
#: (tuples of numbers and strings cost the cyclic collector nothing).
NAME, START, END, ID, PARENT, QUERY, PHASE = range(7)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``spans`` holds ``(name, start, end, span id, parent id (-1 at top
    level), query id (-1 outside a query), phase)`` in closing order.
    """

    def __init__(self):
        self.spans: List[tuple] = []
        self.query_id = -1
        self.phase = ""
        self.measured: Dict[str, float] = {}
        self.arena_growth: List[int] = []
        self.gc_pauses: List[float] = []
        self._gc_started: Dict[int, float] = {}
        self._stack: List[tuple] = []
        self._next_id = 0
        self._index: Dict[int, tuple] = {}
        self._undo: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()

    # ---------------------------------------------------------- recording
    def _recording(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    def _open(self, name: str) -> None:
        self._stack.append((self._next_id, name, time.perf_counter()))
        self._next_id += 1

    def _close(self, keep: bool = True) -> None:
        span_id, name, start = self._stack.pop()
        if keep:
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(
                (name, start, time.perf_counter(), span_id, parent, self.query_id, self.phase)
            )

    @contextlib.contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def add_measured(self, phase: str, seconds: float) -> None:
        """Wall time of a measured phase, the denominator of span coverage."""
        self.measured[phase] = self.measured.get(phase, 0.0) + seconds

    # ----------------------------------------------------------- wrapping
    def _patch(self, holder, attribute: str, wrapper) -> None:
        self._undo.append((holder, attribute, holder.__dict__[attribute]))
        setattr(holder, attribute, wrapper)

    def wrap(self, holder, attribute: str, name: str) -> None:
        if any(h is holder and a == attribute for h, a, _ in self._undo):
            return  # already wrapped by this tracer
        original = holder.__dict__[attribute]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._recording():
                return original(*args, **kwargs)
            tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close()

        self._patch(holder, attribute, wrapper)

    def install(self) -> "Tracer":
        for holder, attribute, name in ENTRY_POINTS:
            self.wrap(holder, attribute, name)
        self._wrap_materialize()
        self._wrap_delta_build()
        gc.callbacks.append(self._on_gc)
        return self

    def wrap_verifier(self, verifier) -> None:
        """Time the signature check of the client's published verifier."""
        self.wrap(type(verifier), "verify", "crypto.sig_verify")

    def _wrap_materialize(self) -> None:
        """Span and count only the calls that really materialize a leaf."""
        original = ITree.__dict__["materialize_leaf"]
        tracer = self

        def materialize_leaf(itree, leaf):
            if not tracer._recording() or leaf.witness is not None:
                return original(itree, leaf)
            tracer._open("itree.materialize")
            try:
                return original(itree, leaf)
            finally:
                # An eagerly built tree has nothing to materialize.
                tracer._close(keep=leaf.witness is not None)

        self._patch(ITree, "materialize_leaf", materialize_leaf)

    def _wrap_delta_build(self) -> None:
        """Record the arena rows each delta forest appends to its seed arena."""
        original = DeltaForestHasher.__dict__["build"]
        tracer = self

        def build(hasher, *args, **kwargs):
            if not tracer._recording():
                return original(hasher, *args, **kwargs)
            tracer._open("merkle.delta_forest")
            try:
                return original(hasher, *args, **kwargs)
            finally:
                tracer._close()
                tracer.arena_growth.append(hasher.appended_nodes)

        self._patch(DeltaForestHasher, "build", build)

    def _on_gc(self, event: str, info: Dict[str, int]) -> None:
        # A collection runs its callbacks in the thread that triggered it.
        if info.get("generation") != 2 or os.getpid() != self._pid:
            return
        thread = threading.get_ident()
        if event == "start":
            self._gc_started[thread] = time.perf_counter()
        elif thread in self._gc_started:
            self.gc_pauses.append(time.perf_counter() - self._gc_started.pop(thread))

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._undo):
            setattr(holder, attribute, original)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ----------------------------------------------------------- analysis
    def select(self, name: str, phase: Optional[str] = None) -> List[tuple]:
        return [
            span for span in self.spans
            if span[NAME] == name and (phase is None or span[PHASE] == phase)
        ]

    def total(self, name: str, phase: Optional[str] = None) -> float:
        return sum(span[END] - span[START] for span in self.select(name, phase))

    def mean(self, name: str, phase: Optional[str] = None) -> float:
        spans = self.select(name, phase)
        return self.total(name, phase) / len(spans) if spans else 0.0

    def self_time(self, name: str, phase: Optional[str] = None) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        wanted = {span[ID] for span in self.select(name, phase)}
        children = sum(
            span[END] - span[START] for span in self.spans if span[PARENT] in wanted
        )
        return self.total(name, phase) - children

    def ancestors(self, span: tuple):
        """Names of the spans enclosing ``span``, innermost first."""
        by_id = self._by_id()
        parent = span[PARENT]
        while parent != -1:
            yield by_id[parent][NAME]
            parent = by_id[parent][PARENT]

    def _by_id(self) -> Dict[int, tuple]:
        if len(self._index) != len(self.spans):
            self._index = {span[ID]: span for span in self.spans}
        return self._index

    def coverage(self) -> Dict[str, float]:
        """Share of each measured phase's wall time inside top-level spans."""
        covered: Dict[str, float] = {}
        for span in self.spans:
            if span[PARENT] == -1 and span[PHASE] in self.measured:
                covered[span[PHASE]] = covered.get(span[PHASE], 0.0) + span[END] - span[START]
        return {
            phase: covered.get(phase, 0.0) / seconds
            for phase, seconds in self.measured.items()
            if seconds > 0
        }

    def write(self, path: str) -> None:
        """Dump every span as gzipped JSON lines."""
        fields = ("name", "start", "end", "id", "parent", "query", "phase")
        with gzip.open(path, "wt", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(dict(zip(fields, span))) + "\n")
