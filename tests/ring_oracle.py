"""The push-then-pop slowest-trace ring, kept as a test oracle.

:class:`repro.obs.SlowTraceRing` is offered only the traces its
``admits`` check lets through: the tracer builds a trace's spans only
when the ring will keep it (or an event log wants them).  This ring is
the reference that lazy path must match: every finished trace is
pushed, keyed by ``(duration, arrival)``, and the fastest popped once
the ring is over capacity -- so a new trace whose duration ties the
fastest retained one evicts the older.
"""

from __future__ import annotations

import heapq
import itertools


class OracleSlowTraceRing:
    """Keep-the-slowest ring fed every trace, push then pop."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = itertools.count()

    def offer(self, trace: dict) -> None:
        heapq.heappush(self._heap, (float(trace["duration_ms"]),
                                    next(self._seq), trace))
        if len(self._heap) > self.capacity:
            heapq.heappop(self._heap)

    def slowest(self) -> list[dict]:
        """Retained traces, slowest first (earlier arrival first on a
        tie)."""
        ordered = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        return [trace for _, _, trace in ordered]
