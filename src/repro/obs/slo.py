"""SLO health: rolling-window burn-rate evaluation over windowed
telemetry.

An :class:`SLOMonitor` turns a :class:`~repro.obs.metrics.MetricsRegistry`
snapshot (or a cluster-merged one) into a machine-readable health
verdict::

    {"state": "ok" | "degraded" | "breached",
     "reasons": [{"slo": "shed_rate", "value": 0.42, "target": 0.05,
                  "severity": "breached", ...}, ...],
     "horizon_s": 30.0, "requests": 117}

Each rule reads only the windows of the rolling horizon, so a verdict
reflects the last N seconds, not since-boot averages: a p99 regression
or a shed spike flips the state within one window, and recovery clears
it as the offending windows rotate out of the horizon.

Severity is two-level by design: crossing a target is ``degraded``
(page nobody, start looking); crossing ``breach_factor`` times the
target -- or, for floors, falling below the floor divided by it -- is
``breached`` (the error budget is burning fast).  The overall state is
the worst reason's severity.  A horizon with fewer than
``min_requests`` observations is ``ok`` with no reasons: an idle
service is healthy, and rate rules over near-zero denominators would
otherwise flap.

Series names follow the serving tier's conventions
(:mod:`repro.service.engine` and the NDJSON front-end): ``requests``,
``errors``, ``shed``, ``cache_hits``/``cache_misses`` counters and
``latency:<op>`` histograms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs.metrics import window_histogram, window_sum

_STATES = ("ok", "degraded", "breached")


@dataclass(frozen=True)
class SLOConfig:
    """Targets for the health verdict.  Picklable (plain values only):
    it ships to shard workers inside ``ShardConfig``.

    Attributes:
        p99_ms: Default rolling-window latency p99 target applied to
            every ``latency:<op>`` series (``None`` disables latency
            rules).
        p99_ms_by_op: ``(op, target_ms)`` overrides; an override of 0
            or below disables the rule for that op.
        error_rate: Ceiling on errors / requests over the horizon.
        shed_rate: Ceiling on overload sheds / (requests + sheds).
        cache_hit_floor: Floor on cache hits / lookups over the horizon
            (evaluated only once ``min_requests`` lookups happened).
        horizon_s: Rolling evaluation horizon; windows that *started*
            within it count.
        breach_factor: Multiplier separating ``degraded`` from
            ``breached``.
        min_requests: Observations below which the service is ``ok``
            by definition (idle).
    """

    p99_ms: float | None = None
    p99_ms_by_op: tuple[tuple[str, float], ...] = ()
    error_rate: float | None = 0.05
    shed_rate: float | None = 0.10
    cache_hit_floor: float | None = None
    horizon_s: float = 30.0
    breach_factor: float = 2.0
    min_requests: int = 1

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.breach_factor < 1.0:
            raise ValueError("breach_factor must be at least 1")
        if self.min_requests < 1:
            raise ValueError("min_requests must be at least 1")
        for name in ("p99_ms", "error_rate", "shed_rate"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.cache_hit_floor is not None and not (
                0.0 <= self.cache_hit_floor <= 1.0):
            raise ValueError("cache_hit_floor must be within [0, 1]")

    def p99_target(self, op: str) -> float | None:
        """The latency target for one op (override, else default)."""
        for name, target in self.p99_ms_by_op:
            if name == op:
                return target if target > 0 else None
        return self.p99_ms


def worst_state(*states: str) -> str:
    """The most severe of several health states."""
    index = max((_STATES.index(s) for s in states if s in _STATES),
                default=0)
    return _STATES[index]


class SLOMonitor:
    """Evaluates one :class:`SLOConfig` against windowed snapshots."""

    def __init__(self, config: SLOConfig | None = None) -> None:
        self.config = config or SLOConfig()

    def _severity(self, value: float, target: float,
                  floor: bool = False) -> str | None:
        """``degraded``/``breached``/``None`` for one rule."""
        factor = self.config.breach_factor
        if floor:
            if value >= target:
                return None
            return "breached" if value < target / factor else "degraded"
        if value <= target:
            return None
        return "breached" if value > target * factor else "degraded"

    def evaluate(self, snapshot: dict, now: float | None = None) -> dict:
        """The health verdict for one windowed snapshot.

        ``snapshot`` is a :meth:`MetricsRegistry.snapshot
        <repro.obs.metrics.MetricsRegistry.snapshot>` dict -- possibly
        cluster-merged -- and the verdict covers its rolling horizon.
        """
        config = self.config
        now = time.time() if now is None else now
        horizon = config.horizon_s
        reasons: list[dict] = []

        requests = window_sum(snapshot, "requests", horizon, now)
        sheds = window_sum(snapshot, "shed", horizon, now)
        verdict = {"state": "ok", "reasons": reasons,
                   "horizon_s": horizon, "requests": requests,
                   "shed": sheds}
        if requests + sheds < config.min_requests:
            verdict["idle"] = True
            return verdict

        if config.error_rate is not None and requests:
            errors = window_sum(snapshot, "errors", horizon, now)
            rate = errors / requests
            severity = self._severity(rate, config.error_rate)
            if severity:
                reasons.append({"slo": "error_rate", "value": rate,
                                "target": config.error_rate,
                                "errors": errors, "requests": requests,
                                "severity": severity})

        if config.shed_rate is not None and (requests + sheds):
            rate = sheds / (requests + sheds)
            severity = self._severity(rate, config.shed_rate)
            if severity:
                reasons.append({"slo": "shed_rate", "value": rate,
                                "target": config.shed_rate, "shed": sheds,
                                "severity": severity})

        for name, series in snapshot.get("series", {}).items():
            if not name.startswith("latency:"):
                continue
            op = name[len("latency:"):]
            target = config.p99_target(op)
            if target is None:
                continue
            merged = window_histogram(snapshot, name, horizon, now)
            if not merged.get("count"):
                continue
            p99 = float(merged["p99_ms"])
            severity = self._severity(p99, target)
            if severity:
                reasons.append({"slo": "latency_p99", "op": op,
                                "value": p99, "target": target,
                                "count": merged["count"],
                                "severity": severity})

        if config.cache_hit_floor is not None:
            hits = window_sum(snapshot, "cache_hits", horizon, now)
            misses = window_sum(snapshot, "cache_misses", horizon, now)
            lookups = hits + misses
            if lookups >= config.min_requests:
                rate = hits / lookups
                severity = self._severity(rate, config.cache_hit_floor,
                                          floor=True)
                if severity:
                    reasons.append({"slo": "cache_hit_rate", "value": rate,
                                    "target": config.cache_hit_floor,
                                    "lookups": lookups,
                                    "severity": severity})

        verdict["state"] = worst_state(
            *(reason["severity"] for reason in reasons))
        return verdict


def merge_verdicts(overall: dict, *labeled: tuple[str, dict]) -> dict:
    """Fold labeled component verdicts (e.g. per-shard, front-end) into
    an overall one: state is the worst anywhere, and component reasons
    join the list tagged with their source."""
    reasons = list(overall.get("reasons", ()))
    state = overall.get("state", "ok")
    for label, verdict in labeled:
        if not verdict:
            continue
        state = worst_state(state, verdict.get("state", "ok"))
        for reason in verdict.get("reasons", ()):
            reasons.append(dict(reason, source=label))
    return dict(overall, state=state, reasons=reasons)
