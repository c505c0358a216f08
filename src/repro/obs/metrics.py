"""Service telemetry: counters, gauges and histograms sampled into
fixed-interval ring-buffer windows, plus an all-time slot per series.

This module is the one place service-level counts live.  Each series
answers "what is happening *right now*" (the p99 of the last 30
seconds, whether a shard's RSS is still climbing) from its window ring,
and "what happened since boot" from its **all-time total**.  A
:class:`MetricsRegistry` holds named series of three kinds:

* **counter** -- monotone event counts per window (errors, sheds,
  cache hits), plus an all-time ``total`` count;
* **gauge**   -- sampled instantaneous values per window (RSS, CPU
  seconds, open sessions), kept as last/min/max/sum/n so merged views
  report both totals and extremes (no all-time slot);
* **histogram** -- one :class:`~repro.obs.histogram.LogHistogram` per
  window plus an all-time one, so windowed and since-boot percentiles
  merge exactly across shards.

Windows are **epoch-aligned**: a sample at time ``t`` lands in the
window starting at ``floor(t / interval) * interval``, so every process
agrees on boundaries and per-shard windows merge by start key
(:func:`merge_metrics_snapshots`, which also sums the all-time slots).
The ring keeps the newest ``slots`` windows per series and rotates
lazily.  A **late** sample whose window is still resident records into
it; one older than the ring counts only in its all-time total and in
``dropped_late``.  A stage series, fed by the tracer, has no windows.

A request is recorded once per process: the counts and durations
recorded under a tracer activation for this registry
(:data:`PENDING`) ride on it, and its exit folds them under one hold of
:attr:`MetricsRegistry.lock`, into the window of one clock reading.  No
series counts requests: each recorded operation is one ``latency:*``
observation (:func:`total_requests`, :func:`window_requests`).

With an :class:`~repro.obs.events.EventLog`, each series emits one
``kind="metrics"`` record as its window closes; ``python -m
repro.obs.check`` requires per ``(pid, series)`` strictly increasing,
interval-aligned, non-overlapping window starts.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Iterable, Mapping
from contextvars import ContextVar
from dataclasses import dataclass
from threading import Lock

from repro.obs.events import EventLog
from repro.obs.histogram import (
    LogHistogram,
    merge_snapshot_dicts,
    snapshot_dict,
)

#: The tracer activation recording in this context (``None`` outside
#: one): registry calls for its ``metrics`` ride on its ``counted`` and
#: ``observed`` lists.
PENDING: ContextVar = ContextVar("repro_obs_pending", default=None)


@dataclass(frozen=True)
class WindowConfig:
    """Shape of the telemetry ring: ``slots`` windows of ``interval_s``.

    The defaults (10s x 60 slots) retain ten minutes of history at a
    resolution that still catches a 30-second p99 regression.  Tests
    shrink the interval so rotation happens in milliseconds.
    """

    interval_s: float = 10.0
    slots: int = 60

    def __post_init__(self) -> None:
        if not (self.interval_s > 0 and math.isfinite(self.interval_s)):
            raise ValueError("window interval must be a positive number")
        if self.slots < 2:
            raise ValueError("a window ring needs at least 2 slots")

    def start_for(self, ts: float | None = None) -> float:
        """The epoch-aligned start of the window containing ``ts``
        (or now)."""
        if ts is None:
            ts = time.time()
        return math.floor(ts / self.interval_s) * self.interval_s

    @property
    def span_s(self) -> float:
        """Wall-clock coverage of a full ring."""
        return self.interval_s * self.slots


class _Series:
    """One named series: a bounded ``{window_start: slot}`` ring plus the
    all-time ``total`` slot (``None`` for gauges)."""

    __slots__ = ("name", "kind", "windows", "latest_start", "total")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.windows: dict[float, object] = {}
        self.latest_start = -math.inf
        self.total = (0 if kind == "counter" else
                      LogHistogram() if kind == "histogram" else None)

    def copy(self, slot):
        """A private copy of one slot, cheap to take under the lock."""
        if self.kind == "counter":
            return slot
        if self.kind == "gauge":
            return dict(slot)
        return (dict(slot.buckets), slot.count, slot.total_s, slot.min_s,
                slot.max_s)

    def payload(self, copied) -> dict:
        """The JSON-ready record for one :meth:`copy` (no ``start_s``)."""
        if self.kind == "counter":
            return {"value": copied}
        if self.kind == "gauge":
            return copied
        return snapshot_dict(*copied)


class MetricsRegistry:
    """A thread-safe registry of windowed series with all-time totals.

    Args:
        window: Ring shape shared by every series.
        log: Optional NDJSON event log; closed windows are emitted as
            ``kind="metrics"`` records.
        meta: Extra fields stamped onto every emitted record (e.g.
            ``{"shard": 3}``).  ``pid`` is always stamped -- the
            validator needs it to check per-process monotonicity.
    """

    def __init__(self, window: WindowConfig | None = None,
                 log: EventLog | None = None,
                 meta: Mapping | None = None) -> None:
        self.window = window or WindowConfig()
        self.log = log
        self.meta = dict(meta or {})
        self.dropped_late = 0
        self._series: dict[str, _Series] = {}
        self.lock = Lock()
        self._started = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def series(self, name: str, kind: str) -> _Series:
        """The series ``name``, created as ``kind`` on first use.
        Caller holds :attr:`lock`."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = _Series(name, kind)
        return series

    def _window(self, series: _Series, start: float) -> bool:
        """Whether the window at ``start`` is resident in ``series``'
        ring, rotating it for a newer one; a sample older than the ring
        counts in ``dropped_late``.  Caller holds the lock."""
        latest = series.latest_start
        if start > latest:
            self._emit_closed(series)
            series.latest_start = start
            self._retire(series)
        elif start < latest - (self.window.slots - 1) * self.window.interval_s:
            self.dropped_late += 1
            return False
        return True

    def _retire(self, series: _Series) -> None:
        """Keep only the newest ``slots`` windows' span (also after an
        idle gap)."""
        horizon = series.latest_start - (self.window.slots - 1) * \
            self.window.interval_s
        for start in [s for s in series.windows if s < horizon]:
            del series.windows[start]

    def _emit_closed(self, series: _Series) -> None:
        """Log the current window as a newer one supersedes it (later
        late samples count in the registry, not in the record)."""
        slot = series.windows.get(series.latest_start)
        if self.log is None or slot is None:
            return
        record = {
            "series": series.name,
            "series_type": series.kind,
            "start_s": series.latest_start,
            "interval_s": self.window.interval_s,
            "pid": os.getpid(),
        }
        record.update(self.meta)
        record.update(series.payload(series.copy(slot)))
        self.log.write("metrics", record)

    def counter_inc(self, name: str, n: int = 1,
                    ts: float | None = None) -> None:
        """Add ``n`` events to a counter's total and its current (or
        late) window; without ``ts``, under an activation recording into
        this registry, the count rides on it until it completes."""
        pending = PENDING.get()
        if pending is not None and ts is None and pending.metrics is self:
            pending.counted.append((name, n))
        else:
            with self.lock:
                self.fold((), ((name, n),), self.window.start_for(ts))

    def observe(self, name: str, seconds: float,
                ts: float | None = None) -> None:
        """Record one duration into a histogram series' total and its
        current (or late) window; rides on an activation like
        :meth:`counter_inc`."""
        pending = PENDING.get()
        if pending is not None and ts is None and pending.metrics is self:
            pending.observed.append((name, seconds))
        else:
            with self.lock:
                self.fold(((name, seconds),), (), self.window.start_for(ts))

    def gauge_set(self, name: str, value: float,
                  ts: float | None = None) -> None:
        """Record one sampled value of a gauge."""
        value = float(value)
        start = self.window.start_for(ts)
        with self.lock:
            series = self.series(name, "gauge")
            if not self._window(series, start):
                return
            slot = series.windows.get(start)
            if slot is None:
                series.windows[start] = {"last": value, "min": value,
                                         "max": value, "sum": value, "n": 1}
            else:
                slot["last"] = value
                slot["min"] = min(slot["min"], value)
                slot["max"] = max(slot["max"], value)
                slot["sum"] += value
                slot["n"] += 1

    def fold(self, observed: Iterable[tuple[str, float]],
             counted: Iterable[tuple[str, int]], start: float) -> None:
        """Record ``(name, seconds)`` durations and ``(name, n)`` counts
        into their all-time slots and the window at ``start``.  Caller
        holds :attr:`lock`."""
        known = self._series.get
        for name, seconds in observed:
            series = known(name) or self.series(name, "histogram")
            series.total.record(seconds)
            if series.latest_start == start or self._window(series, start):
                slot = series.windows.get(start)
                if slot is None:
                    slot = series.windows[start] = LogHistogram()
                slot.record(seconds)
        for name, n in counted:
            series = known(name) or self.series(name, "counter")
            series.total += n
            if series.latest_start == start or self._window(series, start):
                series.windows[start] = series.windows.get(start, 0) + n

    # -- views -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every series' resident windows and all-time total, JSON-ready
        and exactly mergeable (histograms carry raw buckets), plus the
        registry's age.  The lock is held only to copy the slots."""
        with self.lock:
            copied = [(name, series,
                       [(start, series.copy(slot))
                        for start, slot in sorted(series.windows.items())],
                       None if series.total is None
                       else series.copy(series.total))
                      for name, series in sorted(self._series.items())]
            uptime = time.perf_counter() - self._started
            dropped_late = self.dropped_late
        series_view = {}
        for name, series, windows, total_slot in copied:
            view = {"type": series.kind,
                    "windows": [dict(series.payload(slot), start_s=start)
                                for start, slot in windows]}
            if total_slot is not None:
                view["total"] = series.payload(total_slot)
            series_view[name] = view
        return {
            "interval_s": self.window.interval_s,
            "slots": self.window.slots,
            "uptime_s": uptime,
            "dropped_late": dropped_late,
            "series": series_view,
        }


# -- snapshot-level arithmetic -------------------------------------------------
#
# Windowed series cross process boundaries as snapshot dicts; merging
# must work on the plain-dict form, aligned by window start.

def _merge_counter_windows(parts: list[Mapping]) -> dict[float, dict]:
    merged: dict[float, dict] = {}
    for window in parts:
        start = float(window["start_s"])
        slot = merged.setdefault(start, {"start_s": start, "value": 0})
        slot["value"] += int(window.get("value", 0))
    return merged

def _merge_gauge_windows(parts: list[Mapping]) -> dict[float, dict]:
    merged: dict[float, dict] = {}
    for window in parts:
        start = float(window["start_s"])
        slot = merged.get(start)
        if slot is None:
            merged[start] = {"start_s": start,
                             "last": float(window.get("last", 0.0)),
                             "min": float(window.get("min", 0.0)),
                             "max": float(window.get("max", 0.0)),
                             "sum": float(window.get("sum", 0.0)),
                             "n": int(window.get("n", 0))}
            continue
        # ``last`` sums across sources: the per-process lasts of one
        # window add up to the cluster's instantaneous total (total
        # RSS, total open sessions) -- the view a dashboard wants.
        slot["last"] += float(window.get("last", 0.0))
        slot["min"] = min(slot["min"], float(window.get("min", 0.0)))
        slot["max"] = max(slot["max"], float(window.get("max", 0.0)))
        slot["sum"] += float(window.get("sum", 0.0))
        slot["n"] += int(window.get("n", 0))
    return merged

def _merge_histogram_windows(parts: list[Mapping]) -> dict[float, dict]:
    by_start: dict[float, list[Mapping]] = {}
    for window in parts:
        by_start.setdefault(float(window["start_s"]), []).append(window)
    return {start: dict(merge_snapshot_dicts(group), start_s=start)
            for start, group in by_start.items()}


_MERGERS = {
    "counter": _merge_counter_windows,
    "gauge": _merge_gauge_windows,
    "histogram": _merge_histogram_windows,
}


def _merge_totals(kind: str, parts: list[Mapping]) -> dict:
    if kind == "counter":
        return {"value": sum(int(part.get("value", 0)) for part in parts)}
    return merge_snapshot_dicts(parts)


def merge_metrics_snapshots(snapshots: Iterable[Mapping | None]) -> dict:
    """One cluster-wide view from per-process snapshots.

    Windows align by their epoch-aligned ``start_s`` (identical across
    processes by construction), then merge exactly: counter values and
    gauge sums add, gauge extremes take extremes, histogram buckets sum
    -- so merged windowed percentiles equal union percentiles, in any
    merge order.  All-time totals merge the same way (counts add,
    histogram buckets sum), and ``uptime_s`` is the oldest process's.
    Snapshots with a different ``interval_s`` are skipped (their
    windows would not align) and counted in ``skipped``.
    """
    present = [s for s in snapshots if s]
    if not present:
        return {"interval_s": 0.0, "slots": 0, "uptime_s": 0.0,
                "dropped_late": 0, "series": {}}
    interval = float(present[0].get("interval_s", 0.0))
    aligned = [s for s in present
               if float(s.get("interval_s", 0.0)) == interval]
    parts_by_series: dict[str, tuple[str, list[Mapping], list[Mapping]]] = {}
    dropped_late = 0
    for snapshot in aligned:
        dropped_late += int(snapshot.get("dropped_late", 0))
        for name, series in snapshot.get("series", {}).items():
            kind = series.get("type", "counter")
            entry = parts_by_series.setdefault(name, (kind, [], []))
            if entry[0] == kind:
                entry[1].extend(series.get("windows", ()))
                if "total" in series:
                    entry[2].append(series["total"])
    merged_series = {}
    for name, (kind, windows, totals) in sorted(parts_by_series.items()):
        merged = _MERGERS[kind](windows)
        merged_series[name] = {
            "type": kind,
            "windows": [merged[start] for start in sorted(merged)],
        }
        if kind != "gauge":
            merged_series[name]["total"] = _merge_totals(kind, totals)
    result = {
        "interval_s": interval,
        "slots": max(int(s.get("slots", 0)) for s in aligned),
        "uptime_s": max(float(s.get("uptime_s", 0.0)) for s in aligned),
        "dropped_late": dropped_late,
        "series": merged_series,
    }
    if len(aligned) != len(present):
        result["skipped"] = len(present) - len(aligned)
    return result


# -- rolling-window readers ----------------------------------------------------

def _recent_windows(snapshot: Mapping, name: str, horizon_s: float,
                    now: float | None = None) -> list[Mapping]:
    """Windows of ``name`` that started within the last ``horizon_s``."""
    now = time.time() if now is None else now
    series = snapshot.get("series", {}).get(name)
    if not series:
        return []
    return [w for w in series.get("windows", ())
            if float(w.get("start_s", -math.inf)) > now - horizon_s]

def total(snapshot: Mapping, name: str) -> int | dict:
    """A series' all-time slot: a counter's event count (0 when the
    series is absent), a histogram's snapshot dict."""
    series = snapshot.get("series", {}).get(name)
    if not series:
        return 0
    slot = series.get("total", {})
    if series.get("type") == "counter":
        return int(slot.get("value", 0))
    return slot

def total_requests(snapshot: Mapping) -> int:
    """All-time recorded operations: the ``latency:*`` observations."""
    return sum(int(series.get("total", {}).get("count", 0))
               for name, series in snapshot.get("series", {}).items()
               if name.startswith("latency:"))

def window_requests(snapshot: Mapping, horizon_s: float,
                    now: float | None = None) -> int:
    """Recorded operations over the rolling horizon."""
    return sum(int(w.get("count", 0)) for name in snapshot.get("series", {})
               if name.startswith("latency:")
               for w in _recent_windows(snapshot, name, horizon_s, now))

def window_sum(snapshot: Mapping, name: str, horizon_s: float,
               now: float | None = None) -> int:
    """Total of a counter series over the rolling horizon."""
    return sum(int(w.get("value", 0))
               for w in _recent_windows(snapshot, name, horizon_s, now))

def window_rate(snapshot: Mapping, name: str, horizon_s: float,
                now: float | None = None) -> float:
    """Events per second of a counter series over the horizon."""
    events = window_sum(snapshot, name, horizon_s, now)
    return events / horizon_s if horizon_s > 0 else 0.0

def window_histogram(snapshot: Mapping, name: str, horizon_s: float,
                     now: float | None = None) -> dict:
    """The exact union histogram of a series over the horizon."""
    windows = _recent_windows(snapshot, name, horizon_s, now)
    if not windows:
        return snapshot_dict({}, 0, 0.0, math.inf, 0.0)
    return merge_snapshot_dicts(windows)

def window_gauge_last(snapshot: Mapping, name: str,
                      default: float = 0.0) -> float:
    """The most recent sampled value of a gauge series."""
    series = snapshot.get("series", {}).get(name)
    if not series or not series.get("windows"):
        return default
    return float(series["windows"][-1].get("last", default))

def window_gauge_rate(snapshot: Mapping, name: str) -> float:
    """Per-second growth of a cumulative gauge (e.g. CPU seconds),
    derived from the last two windows' ``last`` samples."""
    series = snapshot.get("series", {}).get(name)
    windows = series.get("windows", []) if series else []
    if len(windows) < 2:
        return 0.0
    prev, last = windows[-2], windows[-1]
    dt = float(last["start_s"]) - float(prev["start_s"])
    if dt <= 0:
        return 0.0
    return (float(last.get("last", 0.0)) - float(prev.get("last", 0.0))) / dt
