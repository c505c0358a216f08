"""Service telemetry: counters, gauges and histograms sampled into
fixed-interval ring-buffer windows, plus an all-time slot per series.

This module is the one place service-level counts live.  Each series
answers two questions: "what is happening *right now*" -- the p99 of
the last 30 seconds, the shed rate of the last window, whether a
shard's RSS is still climbing -- from its window ring, and "what
happened since boot" from its **all-time total**.  A
:class:`MetricsRegistry` holds named series of three kinds:

* **counter** -- monotone event counts per window (requests, errors,
  sheds, cache hits), plus an all-time ``total`` count;
* **gauge**   -- sampled instantaneous values per window (RSS, CPU
  seconds, open sessions, queue depth), kept as last/min/max/sum/n so
  merged views can report both totals and extremes (no all-time slot:
  the newest window already carries ``last``);
* **histogram** -- one :class:`~repro.obs.histogram.LogHistogram` per
  window plus an all-time one, so windowed and since-boot percentiles
  inherit the histogram layer's **exact-merge** guarantee: cluster-wide
  p99 equals the p99 of the union of the shards' observations.

Windows are **epoch-aligned**: a sample at time ``t`` lands in the
window starting at ``floor(t / interval) * interval``.  Every process
therefore agrees on window boundaries without any coordination -- the
same trick the tracer uses for sampling election -- which is what makes
per-shard windows mergeable front-side by plain start-key alignment
(:func:`merge_metrics_snapshots`, which also sums the all-time slots).

The ring keeps the most recent ``slots`` windows per series.  Rotation
is lazy (no background thread): recording into a new window retires
older slots.  A **late** sample whose window still lives in the ring is
recorded into that window -- out-of-order arrival does not corrupt
alignment -- while a sample older than the whole ring is dropped from
the windows and counted in ``dropped_late``.  Every sample, late or
not, counts in its series' all-time total.  A histogram series fed
only through :meth:`MetricsRegistry.record_batch` (the tracer's
per-stage series) has the all-time slot and no windows.

When the registry is given an :class:`~repro.obs.events.EventLog`, each
series emits one ``kind="metrics"`` NDJSON record as its current window
closes (a later window opens), carrying the finished window's data.
``python -m repro.obs.check`` validates these records: per
``(pid, series)`` the window starts must be strictly increasing,
interval-aligned and non-overlapping.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from threading import Lock

from repro.obs.events import EventLog
from repro.obs.histogram import (
    LogHistogram,
    bucket_index,
    merge_snapshot_dicts,
    snapshot_dict,
)


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

    def start_for(self, ts: float) -> float:
        """The epoch-aligned start of the window containing ``ts``."""
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
        self._lock = Lock()
        self._started = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _locate(self, name: str, kind: str,
                ts: float | None) -> tuple[_Series, float | None]:
        """The series a sample belongs to and its window start, rotating
        the ring.

        The start is ``None`` for samples older than the whole ring
        (counted in ``dropped_late``); a late sample whose window is
        still resident records into that window.  Caller holds the lock.
        """
        now = time.time() if ts is None else ts
        start = self.window.start_for(now)
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = _Series(name, kind)
        if start == series.latest_start:
            return series, start
        if start > series.latest_start:
            self._emit_closed(series)
            series.latest_start = start
            self._retire(series)
        elif start < series.latest_start - (self.window.slots - 1) * \
                self.window.interval_s:
            self.dropped_late += 1
            return series, None
        return series, start

    def _retire(self, series: _Series) -> None:
        """Drop windows that fell off the ring (anything older than
        ``slots`` intervals behind the newest window, even after a long
        idle gap)."""
        horizon = series.latest_start - (self.window.slots - 1) * \
            self.window.interval_s
        for start in [s for s in series.windows if s < horizon]:
            del series.windows[start]

    def _emit_closed(self, series: _Series) -> None:
        """Emit the (about to be superseded) current window to the
        event log.  Late samples arriving after emission still count in
        the registry; they are simply absent from the emitted record."""
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
        late) window."""
        self.record_batch((), ((name, n),), ts)

    def gauge_set(self, name: str, value: float,
                  ts: float | None = None) -> None:
        """Record one sampled value of a gauge."""
        value = float(value)
        with self._lock:
            series, start = self._locate(name, "gauge", ts)
            if start is None:
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

    def observe(self, name: str, seconds: float,
                ts: float | None = None) -> None:
        """Record one duration into a histogram series."""
        index = bucket_index(seconds)
        with self._lock:
            series, start = self._locate(name, "histogram", ts)
            series.total.add(index, seconds)
            if start is not None:
                slot = series.windows.get(start)
                if slot is None:
                    slot = series.windows[start] = LogHistogram()
                slot.add(index, seconds)

    def observe_total(self, name: str, seconds: float) -> None:
        """Record one duration into a histogram series' all-time slot
        only: the series keeps no window ring and emits no ``metrics``
        record, so its snapshot stays one histogram however long the
        process runs."""
        self.record_batch(((name, bucket_index(seconds), seconds),))

    def record_batch(self, points: Iterable[tuple[str, int, float]],
                     counters: Iterable[tuple[str, int]] = (),
                     ts: float | None = None) -> None:
        """Record all-time ``(series, bucket index, seconds)`` points
        and ``(series, n)`` counter increments under one lock (the
        tracer's one flush per request; the caller computes the
        :func:`~repro.obs.histogram.bucket_index` outside it)."""
        with self._lock:
            for name, index, seconds in points:
                series = self._series.get(name)
                if series is None:
                    series = self._series[name] = _Series(name, "histogram")
                series.total.add(index, seconds)
            for name, n in counters:
                series, start = self._locate(name, "counter", ts)
                series.total += n
                if start is not None:
                    series.windows[start] = series.windows.get(start, 0) + n

    # -- views -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every series' resident windows and all-time total, JSON-ready
        and mergeable.

        Histogram slots carry their raw buckets, so cross-process merges
        of this snapshot are exact per window and for the totals.
        ``uptime_s`` is the registry's age.  The lock is held only to
        copy the slots; percentiles are computed after it is released.
        """
        with self._lock:
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
