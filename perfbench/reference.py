"""A fixed slice of reference work, timed beside every request.

The host this benchmark runs on is shared: with no steal and no wait for
the CPU (process CPU time equals wall time), a fixed loop still runs
1.5x slower in some stretches than in others, switching within a second
and for whole runs.  No raw time is then steady to a few percent.  So
each timed request is followed by slices of this work (for a tenth of
its time, at least one), which imports
nothing from the program and never changes, and the gated request
figures are the request's time at the host speed where a slice takes
:data:`NOMINAL_MS`: ``ms * NOMINAL_MS / slice_ms``, with ``slice_ms``
the mean of the slices around the request.  A change to the program
moves ``ms`` and leaves the slices alone; a change of host speed moves
both.

The slice mixes what requests spend their time on: interpreter work,
JSON encoding and decoding of a package-sized document, and NumPy
scoring, sorting and distance passes over a category-sized matrix.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

#: The slice's typical time on the 2-vCPU Xeon VM the benchmark was
#: written on, so that normalized figures read as milliseconds there.
NOMINAL_MS = 0.3

#: Samples on each side of a request whose mean is its denominator.
WINDOW = 8

#: Slice time taken after each request, as a share of its latency.
SHARE = 0.1

_rng = np.random.default_rng(2019)
_MATRIX = _rng.standard_normal((320, 48))
_VECTOR = _rng.standard_normal(48)
_POINTS = _rng.uniform(-5.0, 5.0, (320, 2))
_IDS = np.arange(320)
_DOC = {"package": {"composite_items": [
    {"centroid": [48.85 + ci * 1e-3, 2.35], "pois": [
        {"id": 10 * ci + j, "name": f"Venue {ci}-{j}", "cat": "attr",
         "lat": 48.85 + j * 1e-4, "lon": 2.35 - j * 1e-4, "cost": 4.25 + j,
         "type": "history museum", "tags": ["archive", "heritage", "local"]}
        for j in range(6)]} for ci in range(5)]},
    "metrics": {"valid": True, "cohesiveness": 0.61, "rating": 0.47}}


def work() -> int:
    """One slice of reference work; returns a checksum so none of it is
    optimised away."""
    decoded = json.loads(json.dumps(_DOC, sort_keys=True))
    scores = _MATRIX @ _VECTOR
    order = np.lexsort((_IDS, -scores))
    dist = np.hypot(*(_POINTS - _POINTS[order[0]]).T)
    total = 0
    for poi in decoded["package"]["composite_items"][0]["pois"] * 40:
        total += poi["id"] * 3 + len(poi["tags"])
    return total + int(order[0]) + int(dist.argmax())


def slice_ms() -> float:
    started = perf_counter()
    work()
    return (perf_counter() - started) * 1000.0


def sample_ms(request_ms: float) -> float:
    """Mean slice time right after a request: slices for a tenth of the
    request's time, at least one, so a long request is matched by a
    longer look at the host."""
    times = [slice_ms()]
    while sum(times) < SHARE * request_ms:
        times.append(slice_ms())
    return statistics.fmean(times)


def normalized(ms: list[float], refs: list[float]) -> list[float]:
    """Each request's time at the reference speed: divided by the mean
    of the slices timed around it and scaled to :data:`NOMINAL_MS`.

    A mean, not a median: the host flips between a fast and a slow
    state, and a request pays the share of time spent in each."""
    out = []
    for i, value in enumerate(ms):
        window = refs[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(value * NOMINAL_MS / statistics.fmean(window))
    return out
