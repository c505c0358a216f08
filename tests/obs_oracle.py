"""Call-at-a-time metrics recording, kept as a test oracle.

The serving tier records a request once per process: the counts and
durations made under a tracer activation ride on it, and its exit folds
them, with the stage points, into the registry at one clock reading.
It also records no request count of its own: the ``latency:*``
observations are it.  This oracle is the reference that path must
match.  Every call lands in its series as it happens, at the wall time
it is made, the way the registry recorded before batching: one
``requests`` count per accepted request and per served operation, each
``latency:*`` sample and counter into the window of its own timestamp,
each stage into its series' all-time histogram, and the ``obs.traces``
/ ``obs.spans`` counts of a sampled portion.

The oracle keeps its windows in plain dicts and retires them by the
same ring rule as :class:`~repro.obs.MetricsRegistry` (each series
keeps the ``slots`` windows up to its newest one);
:meth:`OracleRegistry.snapshot` renders them in the registry's
snapshot format, so the two compare as dicts.
"""

from __future__ import annotations

import math

from repro.obs.histogram import snapshot_dict


def _bucket(seconds: float) -> int:
    """The log bucket in closed form (growth ``2 ** (1/8)`` above 1 us,
    clamped at 256)."""
    if seconds <= 1e-6:
        return 0
    return min(int(math.log(seconds / 1e-6) / math.log(2.0 ** 0.125)) + 1,
               256)


class _Histogram:
    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    def add(self, seconds: float) -> None:
        index = _bucket(seconds)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)

    def snapshot(self) -> dict:
        return snapshot_dict(self.buckets, self.count, self.total_s,
                             self.min_s, self.max_s)


class OracleRegistry:
    """Counters and histograms recorded one call at a time."""

    def __init__(self, interval_s: float, slots: int) -> None:
        self.interval_s = interval_s
        self.slots = slots
        # name -> [kind, total, {window start: slot}]
        self.series: dict[str, list] = {}

    def _series(self, name: str, kind: str) -> list:
        if name not in self.series:
            self.series[name] = [kind, 0 if kind == "counter"
                                 else _Histogram(), {}]
        return self.series[name]

    def _window(self, windows: dict, now: float, fresh):
        start = math.floor(now / self.interval_s) * self.interval_s
        if start not in windows:
            windows[start] = fresh()
        horizon = max(windows) - (self.slots - 1) * self.interval_s
        for old in [s for s in windows if s < horizon]:
            del windows[old]
        return start

    def counter_inc(self, name: str, n: int, now: float) -> None:
        series = self._series(name, "counter")
        series[1] += n
        windows = series[2]
        windows[self._window(windows, now, int)] += n

    def observe(self, name: str, seconds: float, now: float) -> None:
        series = self._series(name, "histogram")
        series[1].add(seconds)
        windows = series[2]
        windows[self._window(windows, now, _Histogram)].add(seconds)

    def stage(self, name: str, seconds: float) -> None:
        """One stage point: the all-time histogram only."""
        self._series(name, "histogram")[1].add(seconds)

    def snapshot(self) -> dict:
        """The ``series`` part of a registry snapshot."""
        view = {}
        for name, (kind, total, windows) in sorted(self.series.items()):
            if kind == "counter":
                view[name] = {
                    "type": kind, "total": {"value": total},
                    "windows": [{"value": windows[s], "start_s": s}
                                for s in sorted(windows)]}
            else:
                view[name] = {
                    "type": kind, "total": total.snapshot(),
                    "windows": [dict(windows[s].snapshot(), start_s=s)
                                for s in sorted(windows)]}
        return view
