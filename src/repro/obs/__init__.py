"""``repro.obs`` -- end-to-end observability for the serving stack.

Three pieces, designed to cross process boundaries cleanly:

* **Tracing** (:mod:`repro.obs.trace`): :class:`TraceContext` ids
  minted at the front-end, propagated through the wire envelope into
  shard workers, where every serving stage (queue wait, cache lookup,
  store hydrate vs. LDA fit, array build, assembly, serialization)
  is timed; a bounded ring retains the slowest-N completed span trees
  per process.
* **Histograms** (:mod:`repro.obs.histogram`): log-bucketed latency
  distributions whose bucket counts **merge exactly** across shards,
  so cluster-wide p50/p90/p99 are real percentiles, not averages of
  per-shard estimates.
* **Event log** (:mod:`repro.obs.events`): a sampled NDJSON stream
  (stderr or file) with one JSON record per span, error or closed
  metric window; ``python -m repro.obs.check`` validates a captured
  log (well-formed lines, complete span trees, monotone
  non-overlapping metric windows).
* **Windowed telemetry** (:mod:`repro.obs.metrics`): the one store of
  counters, gauges and histogram series (stage timings included), in
  epoch-aligned windows plus an all-time slot, that merge exactly
  across shards; :mod:`repro.obs.resources`
  samples per-process RSS/CPU/GC gauges into them, and
  :mod:`repro.obs.slo` turns rolling windows into an
  ``ok|degraded|breached`` health verdict with machine-readable
  reasons.  ``python -m repro.obs.top`` renders the live cluster view.

:class:`ObsConfig` is the picklable knob bundle the serving tier ships
to worker processes; each worker builds its own :class:`Tracer` and
registry from it.  All of it degrades to near-zero cost when disabled:
entry points check one flag, and :func:`stage` is one context-var read.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.obs.events import EventLog
from repro.obs.histogram import LogHistogram, merge_snapshot_dicts
from repro.obs.metrics import (
    MetricsRegistry,
    WindowConfig,
    merge_metrics_snapshots,
    window_gauge_last,
    window_gauge_rate,
    window_histogram,
    window_rate,
    window_sum,
)
from repro.obs.resources import ResourceSampler
from repro.obs.slo import SLOConfig, SLOMonitor, merge_verdicts, worst_state
from repro.obs.trace import (
    SlowTraceRing,
    TraceContext,
    Tracer,
    new_span_id,
    new_trace_id,
    stage,
)


@dataclass(frozen=True)
class ObsConfig:
    """Observability knobs, picklable for shipment to shard workers.

    Attributes:
        enabled: Master switch for all tracing work.
        sample_rate: Fraction of traces elected for span collection and
            event logging (histograms always see every request).
        slowest: Capacity of the slowest-trace ring.
        log_path: NDJSON event-log target: a file path (opened
            append-mode, shared across workers), ``"-"`` for stderr, or
            ``None`` for no event log.
    """

    enabled: bool = True
    sample_rate: float = 1.0
    slowest: int = 32
    log_path: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        if self.slowest < 1:
            raise ValueError("slowest must be at least 1")

    def make_tracer(self, shard: int | None = None,
                    window: WindowConfig | None = None,
                    meta: Mapping | None = None) -> Tracer:
        """A fresh tracer over a fresh :class:`MetricsRegistry` (ring
        shape ``window``, owning the event log).  ``shard`` is stamped
        onto every record, ``meta`` onto the metrics records."""
        log = (EventLog(self.log_path)
               if self.enabled and self.log_path is not None else None)
        meta = dict(meta or {})
        if shard is not None:
            meta["shard"] = shard
        metrics = MetricsRegistry(window=window, log=log, meta=meta)
        return Tracer(enabled=self.enabled, sample_rate=self.sample_rate,
                      slowest=self.slowest, metrics=metrics, shard=shard)


__all__ = [
    "EventLog",
    "LogHistogram",
    "MetricsRegistry",
    "ObsConfig",
    "ResourceSampler",
    "SLOConfig",
    "SLOMonitor",
    "SlowTraceRing",
    "TraceContext",
    "Tracer",
    "WindowConfig",
    "merge_metrics_snapshots",
    "merge_snapshot_dicts",
    "merge_verdicts",
    "new_span_id",
    "new_trace_id",
    "stage",
    "window_gauge_last",
    "window_gauge_rate",
    "window_histogram",
    "window_rate",
    "window_sum",
    "worst_state",
]
