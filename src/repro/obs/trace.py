"""Trace contexts, spans and the per-process :class:`Tracer`.

A **trace** follows one request across the serving stack: the front-end
mints a ``trace_id``, ships it through the wire envelope into the shard
worker, and every instrumented stage (queue wait, cache lookup, store
hydrate, LDA fit, assembly, serialization ...) records a **span** --
``(trace_id, span_id, parent_id, name, start, duration)`` -- so the
request's time can be attributed layer by layer.

Propagation is implicit: entry points call :meth:`Tracer.activate`,
which parks an activation in a :mod:`contextvars` variable; deeper
layers (the registry, the asset store, the package cache) call the
module-level :func:`stage` context manager without threading any
tracer object through their signatures.  When nothing is active,
:func:`stage` costs one context-variable read and returns a shared
no-op -- library code stays instrumentable without a service attached.

Every stage records into the process's ``MetricsRegistry`` (all-time
``stage:<name>`` and ``stage_city:<city>`` histograms, ``obs.*``
counters), so p50/p90/p99 cover *every* request.  Spans and event-log
records are only produced for **sampled** traces (deterministic by
trace-id hash, so all processes agree without coordination); completed
sampled traces also enter a bounded ring of the slowest-N span trees
that the ``trace`` wire op exposes.
"""

from __future__ import annotations

import heapq
import itertools
import os
import time
import zlib
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from threading import Lock

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


@dataclass(frozen=True)
class TraceContext:
    """The wire form of a trace: what crosses a process boundary.

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
        return cls(
            trace_id=trace_id,
            span_id=span_id if isinstance(span_id, str) else None,
            sent_s=float(sent) if isinstance(sent, (int, float)) else None,
            sampled=bool(data.get("sampled", True)),
        )


@dataclass
class Span:
    """One completed, named segment of a trace."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start_s: float
    duration_ms: float
    city: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_ms": self.duration_ms,
        }
        if self.city is not None:
            record["city"] = self.city
        if self.error is not None:
            record["error"] = self.error
        return record


class _Activation:
    """The live trace state a context variable carries."""

    __slots__ = ("tracer", "trace_id", "parent_id", "spans", "sampled")

    def __init__(self, tracer: "Tracer", trace_id: str,
                 parent_id: str | None, spans: list | None,
                 sampled: bool) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.spans = spans
        self.sampled = sampled

    def child_wire(self, stamp_time: bool = True) -> dict:
        """The ``_trace`` dict to ship to the next hop."""
        return TraceContext(
            trace_id=self.trace_id, span_id=self.parent_id,
            sent_s=time.time() if stamp_time else None,
            sampled=self.sampled,
        ).to_wire()


_ACTIVE: ContextVar[_Activation | None] = ContextVar("repro_obs_active",
                                                     default=None)


def current_activation() -> _Activation | None:
    """The trace activation of the calling context, if any."""
    return _ACTIVE.get()


@contextmanager
def use_activation(act: _Activation | None) -> Iterator[None]:
    """Rebind an activation in another thread (the batch pool's worker
    threads do not inherit the submitting context)."""
    if act is None:
        yield
        return
    token = _ACTIVE.set(act)
    try:
        yield
    finally:
        _ACTIVE.reset(token)


#: Shared do-nothing stage (no active trace, or tracing disabled).
_NULL_TIMER = nullcontext()


class _StageTimer:
    """One timed stage: histogram always, a Span when sampled."""

    __slots__ = ("_act", "name", "city", "span_id", "_parent_id", "_token",
                 "_started", "_start_ts")

    def __init__(self, act: _Activation, name: str, city: str | None) -> None:
        self._act = act
        self.name = name
        self.city = city
        self.span_id: str | None = None
        self._token = None

    def __enter__(self) -> "_StageTimer":
        act = self._act
        if act.sampled:
            self._start_ts = time.time()
            self.span_id = new_span_id()
            self._parent_id = act.parent_id
            # Children opened inside this stage parent to it.
            self._token = _ACTIVE.set(_Activation(
                act.tracer, act.trace_id, self.span_id, act.spans, True
            ))
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._started
        act = self._act
        # A stage that raised may have been rejecting the city's name,
        # so only a completed stage counts toward a city breakdown.
        act.tracer.record_stage(
            self.name, duration,
            city=self.city if exc_type is None else None)
        if self._token is not None:
            _ACTIVE.reset(self._token)
            act.spans.append(Span(
                trace_id=act.trace_id, span_id=self.span_id,
                parent_id=self._parent_id, name=self.name,
                start_s=self._start_ts, duration_ms=duration * 1000.0,
                city=self.city,
                error=(f"{exc_type.__name__}: {exc}"
                       if exc_type is not None else None),
            ))
        return None


def stage(name: str, city: str | None = None):
    """Time a block as one named stage of the active trace.

    Usable anywhere below an entry point that called
    :meth:`Tracer.activate`; a no-op (one context-variable read) when
    nothing is active.
    """
    act = _ACTIVE.get()
    if act is None:
        return _NULL_TIMER
    return _StageTimer(act, name, city)


class SlowTraceRing:
    """Bounded keep-the-slowest ring of completed trace trees."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be at least 1")
        self.capacity = capacity
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = itertools.count()
        self._lock = Lock()

    def offer(self, trace: dict) -> None:
        """Consider one finished trace (keyed by its root duration)."""
        entry = (float(trace.get("duration_ms", 0.0)), next(self._seq), trace)
        with self._lock:
            heapq.heappush(self._heap, entry)
            if len(self._heap) > self.capacity:
                heapq.heappop(self._heap)

    def slowest(self, limit: int | None = None) -> list[dict]:
        """Retained traces, slowest first."""
        with self._lock:
            ordered = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        traces = [trace for _, _, trace in ordered]
        return traces[:limit] if limit is not None else traces

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)


class _RootActivation:
    """Context manager behind :meth:`Tracer.activate`."""

    __slots__ = ("_tracer", "_name", "_ctx", "_act", "_token",
                 "_started", "_start_ts", "_root_span_id", "_root_parent")

    def __init__(self, tracer: "Tracer", name: str,
                 ctx: TraceContext | None) -> None:
        self._tracer = tracer
        self._name = name
        self._ctx = ctx
        self._act: _Activation | None = None

    def __enter__(self) -> _Activation | None:
        tracer = self._tracer
        if not tracer.enabled:
            return None
        self._start_ts = time.time()
        ctx = self._ctx
        queue_wait = None
        if ctx is not None:
            trace_id, parent, sampled = ctx.trace_id, ctx.span_id, ctx.sampled
            if ctx.sent_s is not None:
                # Admission-to-service wait, observed receiver-side.
                queue_wait = tracer.record_queue_wait(ctx, self._start_ts)
        else:
            trace_id = new_trace_id()
            parent = None
            sampled = tracer.elects(trace_id)
        span_id = new_span_id()
        # A queue-wait span exists only for a sampled trace.
        spans = ([queue_wait] if queue_wait is not None
                 else [] if sampled else None)
        act = _Activation(tracer, trace_id, span_id, spans, sampled)
        self._act = act
        # Remember the root ids: act.parent_id aliases the *current*
        # parent and stage timers rebind the context, so finalization
        # must not read them back from a mutated activation.
        self._root_span_id = span_id
        self._root_parent = parent
        self._token = _ACTIVE.set(act)
        self._started = time.perf_counter()
        return act

    def __exit__(self, exc_type, exc, tb) -> None:
        act = self._act
        if act is None:
            return None
        duration = time.perf_counter() - self._started
        _ACTIVE.reset(self._token)
        tracer = self._tracer
        tracer.record_stage(self._name, duration)
        if act.sampled:
            root = Span(
                trace_id=act.trace_id, span_id=self._root_span_id,
                parent_id=self._root_parent, name=self._name,
                start_s=self._start_ts, duration_ms=duration * 1000.0,
                error=(f"{exc_type.__name__}: {exc}"
                       if exc_type is not None else None),
            )
            act.spans.append(root)
            tracer.finalize(root, act.spans)
        return None


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
        self._names: dict[str, set[str]] = {STAGE_PREFIX: set(),
                                            CITY_PREFIX: set()}
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

    def mint(self) -> TraceContext:
        """A fresh root context (the front-end's per-request mint)."""
        trace_id = new_trace_id()
        return TraceContext(trace_id=trace_id, sampled=self.elects(trace_id))

    # -- recording ---------------------------------------------------------

    def record_stage(self, name: str, seconds: float,
                     city: str | None = None) -> None:
        """Count one stage duration (and its per-city breakdown)."""
        if not self.enabled:
            return
        self.metrics.observe_total(self._bounded(STAGE_PREFIX, name),
                                   seconds)
        if city is not None:
            self.metrics.observe_total(self._bounded(CITY_PREFIX, city),
                                       seconds)

    def _bounded(self, prefix: str, name: str) -> str:
        """The series ``name`` records into: its own for the first
        ``_MAX_NAMES`` distinct names per prefix, ``__other__`` after."""
        names = self._names[prefix]
        if name not in names:
            with self._names_lock:
                if name not in names and len(names) >= _MAX_NAMES:
                    name = _OTHER
                else:
                    names.add(name)
        return prefix + name

    def record_queue_wait(self, ctx: TraceContext,
                          now_s: float) -> Span | None:
        """Admission/queue wait derived from the sender's hand-off
        stamp: a histogram point, and the span returned for a sampled
        trace (``None`` otherwise)."""
        wait = max(0.0, now_s - float(ctx.sent_s or now_s))
        self.record_stage("queue_wait", wait)
        if not ctx.sampled:
            return None
        return Span(trace_id=ctx.trace_id, span_id=new_span_id(),
                    parent_id=ctx.span_id, name="queue_wait",
                    start_s=now_s - wait, duration_ms=wait * 1000.0)

    def activate(self, name: str,
                 ctx: TraceContext | None = None) -> _RootActivation:
        """Open this process's root span for one request.

        Returns a context manager yielding the activation (``None``
        when the tracer is disabled).  On exit the local span tree is
        finalized: fed to the slowest ring and the event log.
        """
        return _RootActivation(self, name, ctx)

    def finalize(self, root: Span, spans: list[Span]) -> None:
        """Complete a sampled trace: ring + event log."""
        self.metrics.counter_inc("obs.traces")
        self.metrics.counter_inc("obs.spans", len(spans))
        trace = {
            "trace_id": root.trace_id,
            "name": root.name,
            "duration_ms": root.duration_ms,
            "shard": self.shard,
            "spans": [span.to_dict() for span in spans],
        }
        self.ring.offer(trace)
        if self.log is not None:
            for span in spans:
                record = span.to_dict()
                if self.shard is not None:
                    record["shard"] = self.shard
                self.log.write("span", record)

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
