"""Log-bucketed latency histograms that merge exactly.

A :class:`LogHistogram` counts durations into geometrically-spaced
buckets (growth factor ``2**(1/8)``, so every estimate is within ~9% of
the true value) over a sparse ``{bucket_index: count}`` dict.  Unlike a
bounded sample window, two histograms recorded in different processes
**merge exactly**: summing bucket counts yields the same histogram the
union of observations would have produced, so cluster-wide p50/p90/p99
computed after a merge are as accurate as single-process ones -- the
property :func:`~repro.obs.metrics.merge_metrics_snapshots` needs to
merge the shards' registries exactly, and a percentile average can
never give.

Quantiles are reported as the upper edge of the bucket holding the
requested rank: deterministic, monotone in ``q``, and never an
underestimate by more than one bucket width.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Mapping

#: Lower edge of bucket 0; durations at or below it land there.
_BASE_S = 1e-6

#: Geometric growth per bucket (2**(1/8) ~= 1.0905 -> <=9.1% error).
_GROWTH = 2.0 ** 0.125

_LOG_GROWTH = math.log(_GROWTH)

#: Clamp for absurd durations (~74 minutes); keeps indices bounded.
_MAX_INDEX = 256


def _rank(seconds: float) -> int:
    return (int(math.log(seconds / _BASE_S) / _LOG_GROWTH) + 1
            if seconds > _BASE_S else 0)


def _largest_in_each_bucket() -> list[float]:
    """Where :func:`_rank` steps up (walking ulps from the closed form),
    then ``inf`` for the clamp bucket."""
    edges = []
    for index in range(_MAX_INDEX):
        edge = _BASE_S * _GROWTH ** index
        while _rank(edge) > index:
            edge = math.nextafter(edge, 0.0)
        while _rank(math.nextafter(edge, math.inf)) <= index:
            edge = math.nextafter(edge, math.inf)
        edges.append(edge)
    return edges + [math.inf]


#: Bisecting these is :func:`_rank`, clamped, at a fraction of its cost.
_EDGES = _largest_in_each_bucket()


def bucket_index(seconds: float) -> int:
    """The bucket a duration falls into."""
    return bisect_left(_EDGES, seconds)


def bucket_upper_s(index: int) -> float:
    """The (inclusive) upper edge of a bucket, in seconds."""
    return _BASE_S * _GROWTH ** index


class LogHistogram:
    """An exactly-mergeable latency histogram.

    Counts and the duration sum are exact; min/max are exact extremes;
    quantiles are bucket-resolution estimates (<=9.1% relative error).
    Not synchronized: its owning ``MetricsRegistry`` locks around each use.
    """

    __slots__ = ("buckets", "count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        """Count one duration."""
        index = bisect_left(_EDGES, seconds)
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + 1
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def snapshot(self) -> dict:
        """JSON-ready counters, percentiles and the raw buckets.

        The ``buckets`` dict is what makes the snapshot exactly
        mergeable downstream; string keys survive a JSON round trip.
        """
        return snapshot_dict(self.buckets, self.count, self.total_s,
                             self.min_s, self.max_s)


# -- snapshot-level arithmetic -------------------------------------------------
#
# Histograms cross process boundaries as snapshot dicts, so merging and
# quantiles must also work on plain dicts (bucket keys may be strings
# after a JSON round trip).

def _quantile(buckets: Mapping[int, int], count: int, q: float) -> float:
    if count <= 0:
        return 0.0
    rank = min(count, max(1, math.ceil(q * count)))
    seen = 0
    for index in sorted(buckets):
        seen += buckets[index]
        if seen >= rank:
            return bucket_upper_s(index)
    return bucket_upper_s(max(buckets))  # pragma: no cover - rank<=count


def normalize_buckets(raw: Mapping) -> dict[int, int]:
    """Bucket dict with int keys/values (JSON stringifies keys)."""
    return {int(index): int(n) for index, n in raw.items()}


def snapshot_dict(buckets: Mapping[int, int], count: int, total_s: float,
                  min_s: float, max_s: float) -> dict:
    """The wire form shared by live histograms and merged snapshots."""
    buckets = normalize_buckets(buckets)
    return {
        "count": count,
        "total_ms": total_s * 1000.0,
        "mean_ms": (total_s / count) * 1000.0 if count else 0.0,
        "min_ms": min_s * 1000.0 if count else 0.0,
        "max_ms": max_s * 1000.0,
        "p50_ms": _quantile(buckets, count, 0.50) * 1000.0,
        "p90_ms": _quantile(buckets, count, 0.90) * 1000.0,
        "p95_ms": _quantile(buckets, count, 0.95) * 1000.0,
        "p99_ms": _quantile(buckets, count, 0.99) * 1000.0,
        "buckets": {str(index): n for index, n in sorted(buckets.items())},
    }


def merge_snapshot_dicts(snapshots: Iterable[Mapping]) -> dict:
    """Exactly merge histogram snapshot dicts (see :func:`snapshot_dict`).

    Counts are exact, extremes exact, the duration sum is correctly
    rounded (``math.fsum``), and the merged buckets are the bucket-wise
    sum -- so the merge, percentiles included, equals the union of the
    original observations' and is independent of merge order.
    """
    buckets: dict[int, int] = {}
    count = 0
    parts_s: list[float] = []
    min_s = math.inf
    max_s = 0.0
    for snapshot in snapshots:
        for index, n in normalize_buckets(snapshot.get("buckets", {})).items():
            buckets[index] = buckets.get(index, 0) + n
        part = int(snapshot.get("count", 0))
        count += part
        parts_s.append(float(snapshot.get("total_ms", 0.0)) / 1000.0)
        if part:
            min_s = min(min_s, float(snapshot.get("min_ms", 0.0)) / 1000.0)
        max_s = max(max_s, float(snapshot.get("max_ms", 0.0)) / 1000.0)
    return snapshot_dict(buckets, count, math.fsum(parts_s), min_s, max_s)
