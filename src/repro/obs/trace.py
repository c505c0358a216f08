"""Trace contexts, stage records and the per-process :class:`Tracer`.

A **trace** follows one request across the serving stack: the front-end
mints a ``trace_id``, ships it through the wire envelope into the shard
worker, and every instrumented stage (queue wait, cache lookup, store
hydrate, LDA fit, assembly, serialization ...) can become a **span** --
``(trace_id, span_id, parent_id, name, start, duration)``.  Entry points
call :meth:`Tracer.activate`, which parks the root in a
:mod:`contextvars` variable; deeper layers call :func:`stage` without
threading a tracer through their signatures (one context-variable read
and a shared no-op when nothing is active).

One request costs one registry flush per process.  A stage is its own
record: on exit it appends itself (name, city, parent, perf-counter
start, duration, error) to its root's list -- no span, no span id, no
wall clock, no registry call.  When the root exits, every
``stage:<name>``/``stage_city:<city>`` point and the ``obs.*`` counts
go into the process's ``MetricsRegistry`` under one lock, so the
histograms cover *every* request.  Span ids and span dicts are built
only for a **sampled** trace (deterministic by trace-id hash, so all
processes agree) that the ring of the slowest-N trees admits, or for
every sampled trace when an event log is attached; starts are one
``time.time()`` per trace plus perf-counter offsets.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import time
import zlib
from contextlib import nullcontext
from contextvars import ContextVar
from threading import Lock
from time import perf_counter
from typing import NamedTuple

from repro.obs.histogram import bucket_index
from repro.obs.metrics import MetricsRegistry

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


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (kernel entropy: fork-safe)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A process-unique span id (pid-prefixed: shard workers collide
    neither with each other nor with the front-end)."""
    return f"{os.getpid():x}-{next(_span_counter)}"


class TraceContext(NamedTuple):
    """The wire form of a trace: what crosses a process boundary
    (immutable; a named tuple because one is parsed per request).

    Attributes:
        trace_id: The request's end-to-end identity.
        span_id: The sender-side parent span; receiver-side spans hang
            under it.
        sent_s: Sender's epoch timestamp at hand-off; the receiver
            derives admission/queue wait from it (same-host clocks).
        sampled: Whether the sender elected this trace for span
            collection; receivers honor the decision as-is.
    """

    trace_id: str
    span_id: str | None = None
    sent_s: float | None = None
    sampled: bool = True

    def to_wire(self) -> dict:
        wire: dict = {"trace_id": self.trace_id, "sampled": self.sampled}
        if self.span_id is not None:
            wire["span_id"] = self.span_id
        if self.sent_s is not None:
            wire["sent_s"] = self.sent_s
        return wire

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


class _StageTimer:
    """One timed stage, and the record it leaves in its root's list.
    In a sampled trace an open stage is also the frame that stages
    opened under it parent to; its span id is minted on first use."""

    __slots__ = ("root", "parent", "name", "city", "started", "duration",
                 "error", "span_id", "_token")

    def __init__(self, parent, name: str, city: str | None) -> None:
        self.root = parent.root
        self.parent = parent
        self.name = name
        self.city = city
        self.error = self.span_id = self._token = None

    @property
    def trace_id(self) -> str:
        return self.root.trace_id

    def span_id_now(self) -> str:
        if self.span_id is None:
            self.span_id = new_span_id()
        return self.span_id

    def child_wire(self, stamp_time: bool = True) -> dict:
        """The ``_trace`` dict to ship to the next hop (the remote
        portion parents to this frame)."""
        root = self.root
        wire: dict = {"trace_id": root.trace_id, "sampled": root.sampled}
        if root.sampled:
            wire["span_id"] = self.span_id_now()
        if stamp_time:
            wire["sent_s"] = time.time()
        return wire

    def __enter__(self) -> "_StageTimer":
        if self.root.sampled:
            self._token = _ACTIVE.set(self)
        self.started = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = perf_counter() - self.started
        if self._token is not None:
            _ACTIVE.reset(self._token)
        if exc_type is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        records = self.root.records
        if records is not None:  # None once the root has completed
            records.append(self)


class _Activation(_StageTimer):
    """One process's portion of a trace: the context manager
    :meth:`Tracer.activate` returns and, when the tracer is enabled,
    the root frame it yields.  On exit it hands its records to
    :meth:`Tracer.complete` in one piece."""

    __slots__ = ("tracer", "trace_id", "sampled", "records", "_ctx",
                 "_anchor")

    def __init__(self, tracer: "Tracer", name: str,
                 ctx: TraceContext | None) -> None:
        self.tracer = tracer
        self.name = name
        self._ctx = ctx
        self.records: list | None = None

    @property
    def root(self) -> "_Activation":
        return self

    def __enter__(self) -> "_Activation | None":
        tracer = self.tracer
        if not tracer.enabled:
            return None
        ctx = self._ctx
        self.records = []
        self.city = self.error = self.span_id = self._anchor = None
        if ctx is None:
            self.trace_id = new_trace_id()
            self.parent = None
            self.sampled = tracer.elects(self.trace_id)
        else:
            self.trace_id, self.parent = ctx.trace_id, ctx.span_id
            self.sampled = ctx.sampled
        self._token = _ACTIVE.set(self)
        self.started = perf_counter()
        if ctx is not None and ctx.sent_s is not None:
            # Admission-to-service wait, observed receiver-side: a
            # record under the sender's span, ending as this one starts.
            now = time.time()
            self._anchor = (now, self.started)
            wait = max(0.0, now - ctx.sent_s)
            queued = _StageTimer(self, "queue_wait", None)
            queued.parent = ctx.span_id
            queued.started = self.started - wait
            queued.duration = wait
            self.records.append(queued)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        records = self.records
        if records is None:
            return
        self.duration = perf_counter() - self.started
        _ACTIVE.reset(self._token)
        if exc_type is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        # Stages point back at this root; dropping the list breaks the
        # cycle so a finished request is freed by reference counting.
        self.records = None
        self.tracer.complete(self, records)

    def spans(self, records: list) -> list[dict]:
        """The span dicts of this portion: its records in completion
        order, then the root."""
        frames = (*records, self)
        for frame in frames:
            frame.span_id_now()
        wall, perf = self._anchor or (time.time(), perf_counter())
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


_ACTIVE: ContextVar[_StageTimer | None] = ContextVar("repro_obs_active",
                                                     default=None)


#: Shared do-nothing stage (no active trace, or tracing disabled).
_NULL_TIMER = nullcontext()


def stage(name: str, city: str | None = None):
    """Time a block as one named stage of the active trace.

    Usable anywhere below an entry point that called
    :meth:`Tracer.activate`; a no-op (one context-variable read) when
    nothing is active.
    """
    frame = _ACTIVE.get()
    if frame is None:
        return _NULL_TIMER
    return _StageTimer(frame, name, city)


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
        # name -> the series it records into, per prefix.
        self._series: dict[str, dict[str, str]] = {STAGE_PREFIX: {},
                                                   CITY_PREFIX: {}}
        self._names_lock = Lock()

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

    def record_stage(self, name: str, seconds: float,
                     city: str | None = None) -> None:
        """Count one stage duration (and its per-city breakdown)."""
        if self.enabled:
            index = bucket_index(seconds)
            self.metrics.record_batch([
                (self._bounded(prefix, key), index, seconds)
                for prefix, key in ((STAGE_PREFIX, name), (CITY_PREFIX, city))
                if key is not None])

    def _bounded(self, prefix: str, name: str) -> str:
        """The series ``name`` records into: its own for the first
        ``_MAX_NAMES`` distinct names per prefix, ``__other__`` after."""
        series = self._series[prefix].get(name)
        if series is None:
            with self._names_lock:
                known = self._series[prefix]
                if name not in known and len(known) >= _MAX_NAMES:
                    return prefix + _OTHER
                series = known.setdefault(name, prefix + name)
        return series

    def activate(self, name: str,
                 ctx: TraceContext | None = None) -> _Activation:
        """Open this process's root span for one request.

        Returns a context manager yielding the activation (``None``
        when the tracer is disabled).  On exit the request's stages are
        flushed to the registry and, for a sampled trace, its span tree
        offered to the slowest ring and the event log.
        """
        return _Activation(self, name, ctx)

    def complete(self, root: _Activation, records: list) -> None:
        """Flush one finished portion in one registry batch, then build
        its spans if anyone will read them.  A stage that raised may
        have rejected the city's name, so it counts toward no city."""
        stages, cities = self._series[STAGE_PREFIX], self._series[CITY_PREFIX]
        bounded = self._bounded
        points = []
        for record in (*records, root):
            name, city, duration = record.name, record.city, record.duration
            index = bucket_index(duration)
            points.append((stages.get(name) or bounded(STAGE_PREFIX, name),
                           index, duration))
            if city is not None and record.error is None:
                points.append((cities.get(city) or bounded(CITY_PREFIX, city),
                               index, duration))
        if not root.sampled:
            self.metrics.record_batch(points)
            return
        self.metrics.record_batch(points, (("obs.traces", 1),
                                           ("obs.spans", len(records) + 1)))
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
        act = _ACTIVE.get()
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
        """Combine slowest-trace rings from several processes.

        Entries sharing a ``trace_id`` (the front-end's portion and a
        worker's portion of one request) are unioned span-wise; the
        merged duration is the largest portion's.  Slowest first,
        truncated to ``limit`` (``None`` = all -- inner merge layers
        must not trim, or they would cut portions of traces that an
        outer layer still needs to union).
        """
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
