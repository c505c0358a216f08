"""Trace contexts, stage records and the per-process :class:`Tracer`.

A **trace** follows one request across the serving stack: the front-end
mints a ``trace_id``, hands it to the shard worker, and every
instrumented stage (queue wait, cache lookup, store hydrate, LDA fit,
assembly, serialization ...) can become a **span** --
``(trace_id, span_id, parent_id, name, start, duration)``.

A request is one record per process.  :meth:`Tracer.activate` parks its
activation in :data:`~repro.obs.metrics.PENDING`; deeper layers call
:func:`stage` (one context-variable read, a shared no-op when nothing
is active).  A stage takes the activation's open frame as its parent
and on exit appends itself to the activation's list, and the registry
calls made meanwhile ride on the activation too.  Its exit folds all of
it into the ``stage:<name>``/``stage_city:<city>`` histograms and the
registry's windows under one hold of the registry's lock.  Span ids and
span dicts are built only for a **sampled** trace (deterministic by
trace-id hash, so all processes agree) that the slowest-N ring admits
or an event log wants.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import time
import zlib
from contextlib import nullcontext
from random import getrandbits
from threading import Lock
from time import perf_counter
from typing import NamedTuple

from repro.obs.histogram import LogHistogram
from repro.obs.metrics import PENDING, MetricsRegistry

#: Series prefixes of the stage and per-city histograms (never
#: ``latency:``, which the SLO monitor reads as per-op latencies), and
#: the tracer's counters, each the ``obs.<name>`` counter series.
STAGE_PREFIX = "stage:"
CITY_PREFIX = "stage_city:"
TRACE_COUNTERS = ("traces", "spans", "errors")

#: Bound on distinct stage/city names; beyond it recordings fold into
#: ``__other__``, so client-controlled names cannot grow the registry.
_MAX_NAMES = 128

_OTHER = "__other__"

_span_counter = itertools.count(1)

#: ``TraceContext(...)`` without its Python-level ``__new__`` (one a hop).
_tuple_new = tuple.__new__


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (:mod:`random` reseeds in a forked
    child)."""
    return "%016x" % getrandbits(64)


def _set_pid_prefix() -> None:
    global _PID_PREFIX
    _PID_PREFIX = f"{os.getpid():x}-"


_set_pid_prefix()
os.register_at_fork(after_in_child=_set_pid_prefix)


def new_span_id() -> str:
    """A process-unique span id (pid-prefixed: shard workers collide
    neither with each other nor with the front-end)."""
    return _PID_PREFIX + str(next(_span_counter))


class TraceContext(NamedTuple):
    """What crosses a process boundary (the shard hop ships the tuple,
    a client's envelope its fields as a dict): the request's
    ``trace_id``; the sender-side ``span_id`` the receiver's spans hang
    under; the sender's epoch ``sent_s`` at hand-off, from which the
    receiver derives its queue wait; and whether the sender ``sampled``
    the trace, which receivers honor as-is."""

    trace_id: str
    span_id: str | None = None
    sent_s: float | None = None
    sampled: bool = True

    @classmethod
    def from_wire(cls, data) -> "TraceContext | None":
        """Parse a wire dict; garbage yields ``None``, never an error
        (trace metadata must not be able to fail a request)."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        span_id = data.get("span_id")
        sent = data.get("sent_s")
        return cls(trace_id,
                   span_id if isinstance(span_id, str) else None,
                   float(sent) if isinstance(sent, (int, float)) else None,
                   bool(data.get("sampled", True)))


class _Stage:
    """One timed stage and its record; while open, the parent of stages
    opened under it.  Its span id is minted on first use."""

    __slots__ = ("root", "parent", "name", "city", "started", "duration",
                 "error", "span_id")

    def __init__(self, root: "_Activation", name: str,
                 city: str | None) -> None:
        self.root = root
        self.name = name
        self.city = city
        self.span_id = None

    def span_id_now(self) -> str:
        if self.span_id is None:
            self.span_id = new_span_id()
        return self.span_id

    def child_context(self) -> TraceContext:
        """The context to ship to the next hop: the remote portion
        parents to this frame and measures its queue wait from now."""
        root = self.root
        return _tuple_new(TraceContext, (
            root.trace_id, self.span_id_now() if root.sampled else None,
            time.time(), root.sampled))

    def __enter__(self) -> "_Stage":
        root = self.root
        self.parent = root.open
        root.open = self
        self.started = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = perf_counter() - self.started
        root = self.root
        root.open = self.parent
        self.error = (None if exc_type is None
                      else f"{exc_type.__name__}: {exc}")
        records = root.records
        if records is not None:  # None once the root has completed
            records.append(self)


class _Activation(_Stage):
    """One process's portion of a trace (what :meth:`Tracer.activate`
    returns; the root frame it yields when enabled): it gathers the
    stage records and the ``(name, value)`` counts and durations handed
    to its registry for :meth:`Tracer.complete`."""

    __slots__ = ("tracer", "metrics", "_trace_id", "sampled", "records",
                 "open", "counted", "observed", "_ctx", "_anchor",
                 "_token")

    city = None  # a root is tagged with no city

    def __init__(self, tracer: "Tracer", name: str,
                 ctx: TraceContext | None) -> None:
        self.tracer = tracer
        self.name = name
        self._ctx = ctx
        self.records: list | None = None

    @property
    def root(self) -> "_Activation":
        return self

    @property
    def trace_id(self) -> str:
        """A trace rooted here mints its id on first read."""
        if self._trace_id is None:
            self._trace_id = new_trace_id()
        return self._trace_id

    def __enter__(self) -> "_Activation | None":
        tracer = self.tracer
        if not tracer.enabled:
            return None
        self.metrics = tracer.metrics
        self.records = []
        self.counted = []
        self.observed = []
        self.open = self
        self.span_id = None
        ctx = self._ctx
        if ctx is None:
            self._trace_id = self.parent = sent = None
            self.sampled = (tracer.sample_rate >= 1.0
                            or tracer.elects(self.trace_id))
        else:
            self._trace_id, self.parent, sent, self.sampled = ctx
        self._token = PENDING.set(self)
        self.started = perf_counter()
        if sent is not None:
            # Admission-to-service wait, observed receiver-side: a
            # record under the sender's span, ending as this one starts.
            now = time.time()
            self._anchor = (now, self.started)
            wait = max(0.0, now - sent)
            queued = _Stage(self, "queue_wait", None)
            queued.parent = self.parent
            queued.started = self.started - wait
            queued.duration = wait
            queued.error = None
            self.records.append(queued)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        records = self.records
        if records is None:
            return
        self.duration = perf_counter() - self.started
        PENDING.reset(self._token)
        self.error = (None if exc_type is None
                      else f"{exc_type.__name__}: {exc}")
        # Breaks the root <-> stage cycles: freed by reference counting.
        self.records = self.open = None
        self.tracer.complete(self, records)

    def spans(self, records: list) -> list[dict]:
        """The span dicts of this portion: its records in completion
        order, then the root."""
        frames = (*records, self)
        for frame in frames:
            frame.span_id_now()
        wall, perf = (getattr(self, "_anchor", None)  # set on a hand-off
                      or (time.time(), perf_counter()))
        spans = []
        for frame in frames:
            parent = frame.parent
            span = {
                "trace_id": self.trace_id,
                "span_id": frame.span_id,
                "parent_id": (parent if parent is None
                              or isinstance(parent, str)
                              else parent.span_id),
                "name": frame.name,
                "start_s": wall + (frame.started - perf),
                "duration_ms": frame.duration * 1000.0,
            }
            if frame.city is not None:
                span["city"] = frame.city
            if frame.error is not None:
                span["error"] = frame.error
            spans.append(span)
        return spans


#: Shared do-nothing stage (no active trace, or tracing disabled).
_NULL_TIMER = nullcontext()


def stage(name: str, city: str | None = None):
    """Time a block as one named stage of the active trace (a no-op,
    one context-variable read, outside :meth:`Tracer.activate`)."""
    root = PENDING.get()
    if root is None:
        return _NULL_TIMER
    return _Stage(root, name, city)


class SlowTraceRing:
    """Bounded keep-the-slowest ring of completed trace trees."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be at least 1")
        self.capacity = capacity
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = itertools.count()
        self._lock = Lock()
        # The fastest retained duration once full, -inf before.  It only
        # rises, so a stale read merely admits a trace offer() drops.
        self._floor_ms = -math.inf

    def admits(self, duration_ms: float) -> bool:
        """Whether :meth:`offer` would keep a trace this slow: the ring
        has room, or the trace is at least as slow as the fastest one
        retained (on a tie the older trace goes)."""
        return duration_ms >= self._floor_ms

    def offer(self, trace: dict) -> None:
        """Consider one finished trace (keyed by its root duration)."""
        entry = (float(trace.get("duration_ms", 0.0)), next(self._seq), trace)
        with self._lock:
            heapq.heappush(self._heap, entry)
            if len(self._heap) > self.capacity:
                heapq.heappop(self._heap)
            if len(self._heap) == self.capacity:
                self._floor_ms = self._heap[0][0]

    def slowest(self, limit: int | None = None) -> list[dict]:
        """Retained traces, slowest first."""
        with self._lock:
            ordered = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        traces = [trace for _, _, trace in ordered]
        return traces[:limit] if limit is not None else traces

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)


class Tracer:
    """Per-process (or per-service) trace collector.

    Args:
        enabled: Master switch; a disabled tracer costs one attribute
            read per entry point.
        sample_rate: Fraction of traces elected for span collection and
            event logging (by deterministic trace-id hash).  Stage
            histograms always cover every request.
        slowest: Capacity of the slowest-trace ring.
        metrics: The registry stages and counters record into; its
            event log is the tracer's too (fresh and logless if omitted).
        shard: Shard index stamped onto emitted records.
    """

    def __init__(self, enabled: bool = True, sample_rate: float = 1.0,
                 slowest: int = 32, metrics: MetricsRegistry | None = None,
                 shard: int | None = None) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.enabled = enabled
        self.sample_rate = sample_rate
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = self.metrics.log
        self.shard = shard
        self.ring = SlowTraceRing(slowest)
        # Stage/city name -> its series' all-time histogram (under the
        # registry's lock).
        self._series: dict[str, dict] = {STAGE_PREFIX: {}, CITY_PREFIX: {}}

    # -- election ----------------------------------------------------------

    def elects(self, trace_id: str) -> bool:
        """Deterministic sampling decision for a trace id (all
        processes agree without coordination)."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        bucket = zlib.crc32(trace_id.encode("utf-8", "replace")) % 1_000_000
        return bucket < self.sample_rate * 1_000_000

    # -- recording ---------------------------------------------------------

    def _bounded(self, prefix: str, name: str) -> LogHistogram:
        """The histogram ``name`` records into, resolved once: its own
        series' for the first ``_MAX_NAMES`` distinct names per prefix,
        ``__other__``'s after.  Caller holds the registry's lock."""
        known = self._series[prefix]
        if len(known) >= _MAX_NAMES:
            return self.metrics.series(prefix + _OTHER, "histogram").total
        known[name] = self.metrics.series(prefix + name, "histogram").total
        return known[name]

    def activate(self, name: str,
                 ctx: TraceContext | None = None) -> _Activation:
        """Open this process's root span for one request: a context
        manager yielding the activation (``None`` when disabled) that
        goes to :meth:`complete` on exit."""
        return _Activation(self, name, ctx)

    def complete(self, root: _Activation, records: list) -> None:
        """Fold one finished portion into the registry under one hold
        of its lock, then build its spans if the slowest ring or the
        event log will read them.  A stage that raised may have rejected
        the city's name, so it counts toward no city."""
        stages, cities = self._series[STAGE_PREFIX], self._series[CITY_PREFIX]
        bounded = self._bounded
        counted = root.counted
        if root.sampled:
            counted.append(("obs.traces", 1))
            counted.append(("obs.spans", len(records) + 1))
        metrics = self.metrics
        start = metrics.window.start_for()
        with metrics.lock:
            for record in (*records, root):
                name, city, duration = record.name, record.city, record.duration
                hist = stages.get(name) or bounded(STAGE_PREFIX, name)
                hist.record(duration)
                if city is not None and record.error is None:
                    hist = cities.get(city) or bounded(CITY_PREFIX, city)
                    hist.record(duration)
            metrics.fold(root.observed, counted, start)
        if not root.sampled:
            return
        duration_ms = root.duration * 1000.0
        kept = self.ring.admits(duration_ms)
        if not kept and self.log is None:
            return
        spans = root.spans(records)
        if kept:
            self.ring.offer({"trace_id": root.trace_id, "name": root.name,
                             "duration_ms": duration_ms,
                             "shard": self.shard, "spans": spans})
        if self.log is not None:
            for span in spans:
                self.log.write("span", span if self.shard is None
                               else dict(span, shard=self.shard))

    def error(self, message: str, code: str | None = None,
              city: str | None = None) -> None:
        """Record one error event (tied to the active trace, if any)."""
        if not self.enabled:
            return
        self.metrics.counter_inc("obs.errors")
        if self.log is None:
            return
        record: dict = {"error": message}
        if code is not None:
            record["code"] = code
        if city:
            record["city"] = city
        if self.shard is not None:
            record["shard"] = self.shard
        act = PENDING.get()
        if act is not None:
            record["trace_id"] = act.trace_id
        self.log.write("error", record)

    # -- views -------------------------------------------------------------

    def slowest_traces(self, limit: int | None = None) -> list[dict]:
        """The retained slowest span trees, slowest first."""
        return self.ring.slowest(limit)

    @staticmethod
    def merge_traces(trace_lists: list[list[dict]],
                     limit: int | None = 32) -> list[dict]:
        """Combine slowest-trace rings from several processes: the
        portions of one ``trace_id`` are unioned span-wise and last as
        long as the largest.  Slowest first, truncated to ``limit``
        (``None`` = all: an inner merge layer must not cut portions an
        outer one still needs to union)."""
        by_id: dict[str, dict] = {}
        for traces in trace_lists:
            for trace in traces or ():
                trace_id = trace.get("trace_id")
                merged = by_id.get(trace_id)
                if merged is None:
                    by_id[trace_id] = {
                        "trace_id": trace_id,
                        "name": trace.get("name"),
                        "duration_ms": float(trace.get("duration_ms", 0.0)),
                        "shard": trace.get("shard"),
                        "spans": list(trace.get("spans", ())),
                    }
                    continue
                seen = {span.get("span_id") for span in merged["spans"]}
                merged["spans"].extend(
                    span for span in trace.get("spans", ())
                    if span.get("span_id") not in seen
                )
                if float(trace.get("duration_ms", 0.0)) > merged["duration_ms"]:
                    merged["duration_ms"] = float(trace["duration_ms"])
                    merged["name"] = trace.get("name")
                    merged["shard"] = trace.get("shard")
        ordered = sorted(by_id.values(),
                         key=lambda t: -float(t.get("duration_ms", 0.0)))
        return ordered[:limit] if limit is not None else ordered

    def close(self) -> None:
        """Release the event log, if file-backed."""
        if self.log is not None:
            self.log.close()
