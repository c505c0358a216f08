"""Windowed telemetry: the metrics registry's ring rotation and
late-sample handling, its all-time totals, the exact-merge guarantee
for cross-shard snapshots (windows and totals), the resource sampler's
rate limiting, the SLO monitor's verdicts, and the event-log
emission/validation round trip.

The merge tests mirror the histogram layer's: cluster-wide windowed
results must equal results over the union of observations, in any
merge order.  Everything records with explicit ``ts`` so the window
arithmetic is deterministic.
"""

import json
import random

import pytest

from repro.obs import (
    EventLog,
    MetricsRegistry,
    ResourceSampler,
    SLOConfig,
    SLOMonitor,
    WindowConfig,
    merge_metrics_snapshots,
    merge_verdicts,
    window_gauge_last,
    window_gauge_rate,
    window_histogram,
    window_rate,
    window_sum,
    worst_state,
)
from repro.obs.check import check_log_lines
from repro.obs.metrics import total


class TestWindowConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(interval_s=0.0)
        with pytest.raises(ValueError):
            WindowConfig(interval_s=float("inf"))
        with pytest.raises(ValueError):
            WindowConfig(slots=1)

    def test_start_for_is_epoch_aligned(self):
        window = WindowConfig(interval_s=10.0, slots=6)
        assert window.start_for(0.0) == 0.0
        assert window.start_for(9.999) == 0.0
        assert window.start_for(10.0) == 10.0
        assert window.start_for(25.3) == 20.0
        assert window.span_s == 60.0

    def test_every_process_agrees_on_boundaries(self):
        # The merge prerequisite: alignment is a pure function of the
        # timestamp, not of when a registry was constructed.
        a = WindowConfig(interval_s=7.5, slots=4)
        b = WindowConfig(interval_s=7.5, slots=9)
        for ts in (0.0, 3.1, 7.5, 1e9 + 2.2):
            assert a.start_for(ts) == b.start_for(ts)

    def test_config_is_picklable(self):
        import pickle
        window = WindowConfig(interval_s=0.25, slots=8)
        assert pickle.loads(pickle.dumps(window)) == window


class TestRingRotation:
    def test_counter_accumulates_within_a_window(self):
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=4))
        reg.counter_inc("requests", ts=100.0)
        reg.counter_inc("requests", n=2, ts=109.9)
        windows = reg.snapshot()["series"]["requests"]["windows"]
        assert windows == [{"value": 3, "start_s": 100.0}]

    def test_old_windows_fall_off_the_ring(self):
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=3))
        for ts in (0.0, 10.0, 20.0, 30.0):
            reg.counter_inc("requests", ts=ts)
        starts = [w["start_s"] for w in
                  reg.snapshot()["series"]["requests"]["windows"]]
        assert starts == [10.0, 20.0, 30.0]  # the ts=0 window retired

    def test_idle_gap_retires_everything_stale(self):
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=3))
        reg.counter_inc("requests", ts=0.0)
        reg.counter_inc("requests", ts=1000.0)  # long idle gap
        starts = [w["start_s"] for w in
                  reg.snapshot()["series"]["requests"]["windows"]]
        assert starts == [1000.0]

    def test_late_sample_lands_in_its_resident_window(self):
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=4))
        reg.counter_inc("requests", ts=35.0)
        reg.counter_inc("requests", ts=22.0)  # late but still resident
        snapshot = reg.snapshot()
        windows = {w["start_s"]: w["value"]
                   for w in snapshot["series"]["requests"]["windows"]}
        assert windows == {20.0: 1, 30.0: 1}
        assert snapshot["dropped_late"] == 0

    def test_sample_older_than_the_ring_is_dropped_and_counted(self):
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=2))
        reg.counter_inc("requests", ts=100.0)
        reg.observe("latency:build", 0.01, ts=100.0)
        reg.gauge_set("rss_bytes", 1.0, ts=100.0)
        reg.counter_inc("requests", ts=50.0)   # two+ slots behind
        reg.observe("latency:build", 0.01, ts=50.0)
        reg.gauge_set("rss_bytes", 1.0, ts=50.0)
        snapshot = reg.snapshot()
        assert snapshot["dropped_late"] == 3
        starts = [w["start_s"] for w in
                  snapshot["series"]["requests"]["windows"]]
        assert starts == [100.0]

    def test_gauge_window_keeps_last_min_max_sum_n(self):
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=4))
        for value in (5.0, 1.0, 3.0):
            reg.gauge_set("inflight", value, ts=42.0)
        (window,) = reg.snapshot()["series"]["inflight"]["windows"]
        assert window == {"last": 3.0, "min": 1.0, "max": 5.0,
                          "sum": 9.0, "n": 3, "start_s": 40.0}


class TestMergeSnapshots:
    def _populated(self, seed: int) -> tuple[MetricsRegistry, list]:
        """One registry plus its raw observations (for union checks)."""
        window = WindowConfig(interval_s=10.0, slots=8)
        reg = MetricsRegistry(window)
        rng = random.Random(seed)
        observations = []
        for _ in range(120):
            ts = rng.uniform(0.0, 60.0)
            reg.counter_inc("requests", ts=ts)
            seconds = rng.uniform(1e-4, 0.3)
            reg.observe("latency:build", seconds, ts=ts)
            observations.append((ts, seconds))
        return reg, observations

    def test_merge_is_order_independent(self):
        snaps = [self._populated(seed)[0].snapshot() for seed in (1, 2, 3)]
        forward = merge_metrics_snapshots(snaps)
        backward = merge_metrics_snapshots(list(reversed(snaps)))
        assert forward == backward

    def test_merged_windows_equal_the_union(self):
        parts, all_obs = [], []
        for seed in (4, 5, 6):
            reg, observations = self._populated(seed)
            parts.append(reg.snapshot())
            all_obs.extend(observations)
        merged = merge_metrics_snapshots(parts)

        union = MetricsRegistry(WindowConfig(interval_s=10.0, slots=8))
        for ts, seconds in all_obs:
            union.counter_inc("requests", ts=ts)
            union.observe("latency:build", seconds, ts=ts)
        expected = union.snapshot()

        assert (merged["series"]["requests"]
                == expected["series"]["requests"])
        # Histogram windows: exact per-window percentiles.
        merged_hist = merged["series"]["latency:build"]["windows"]
        union_hist = expected["series"]["latency:build"]["windows"]
        assert len(merged_hist) == len(union_hist)
        for got, want in zip(merged_hist, union_hist):
            for key in ("start_s", "count", "p50_ms", "p99_ms", "max_ms"):
                assert got[key] == want[key], key

    def test_gauge_lasts_sum_to_the_cluster_total(self):
        # Three "processes" each report 100 MiB resident: the merged
        # window's ``last`` is the instantaneous cluster total.
        parts = []
        for _ in range(3):
            reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=4))
            reg.gauge_set("rss_bytes", 100.0, ts=30.0)
            reg.gauge_set("rss_bytes", 90.0, ts=35.0)
            parts.append(reg.snapshot())
        merged = merge_metrics_snapshots(parts)
        (window,) = merged["series"]["rss_bytes"]["windows"]
        assert window["last"] == 270.0
        assert window["min"] == 90.0 and window["max"] == 100.0
        assert window["n"] == 6

    def test_mismatched_interval_is_skipped_not_garbled(self):
        a = MetricsRegistry(WindowConfig(interval_s=10.0, slots=4))
        b = MetricsRegistry(WindowConfig(interval_s=7.0, slots=4))
        a.counter_inc("requests", ts=20.0)
        b.counter_inc("requests", ts=21.0)
        merged = merge_metrics_snapshots([a.snapshot(), b.snapshot()])
        assert merged["interval_s"] == 10.0
        assert merged["skipped"] == 1
        assert window_sum(merged, "requests", 100.0, now=25.0) == 1

    def test_merge_tolerates_empty_and_none(self):
        merged = merge_metrics_snapshots([None, {}, None])
        assert merged["series"] == {}
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=4))
        reg.counter_inc("requests", ts=5.0)
        merged = merge_metrics_snapshots([None, reg.snapshot()])
        assert window_sum(merged, "requests", 100.0, now=9.0) == 1

    def test_json_round_trip_preserves_merge(self):
        reg, _ = self._populated(7)
        snap = json.loads(json.dumps(reg.snapshot()))
        merged = merge_metrics_snapshots([snap, snap])
        doubled = window_sum(merged, "requests", 120.0, now=60.0)
        assert doubled == 2 * window_sum(snap, "requests", 120.0, now=60.0)


class TestAllTimeTotals:
    def test_total_survives_rotation(self):
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=3))
        for i in range(50):  # one event per second over 5 windows
            reg.counter_inc("requests", ts=float(i))
            reg.observe("latency:build", 0.01, ts=float(i))
        snapshot = reg.snapshot()
        assert len(snapshot["series"]["requests"]["windows"]) == 3
        assert total(snapshot, "requests") == 50
        assert total(snapshot, "latency:build")["count"] == 50
        assert snapshot["series"]["requests"]["total"] == {"value": 50}

    def test_sample_older_than_the_ring_still_counts_in_the_total(self):
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=2))
        reg.counter_inc("requests", n=2, ts=100.0)
        reg.observe("latency:build", 0.01, ts=100.0)
        reg.counter_inc("requests", n=3, ts=50.0)   # older than the ring
        reg.observe("latency:build", 0.02, ts=50.0)
        snapshot = reg.snapshot()
        assert snapshot["dropped_late"] == 2
        assert window_sum(snapshot, "requests", 1000.0, now=105.0) == 2
        assert total(snapshot, "requests") == 5
        assert total(snapshot, "latency:build")["count"] == 2

    def test_total_only_series_keep_no_window_ring(self, tmp_path):
        """An ``observe_total`` series stays one histogram however many
        windows pass, emits no ``metrics`` record, and merges exactly."""
        path = tmp_path / "events.ndjson"
        log = EventLog(str(path))
        regs = [MetricsRegistry(WindowConfig(interval_s=10.0, slots=3),
                                log=log) for _ in range(2)]
        for i, reg in enumerate(regs):
            for t in range(60):  # 60 windows rotate through the ring
                reg.counter_inc("requests", ts=t * 10.0)
                reg.observe_total("stage:serialize", 0.001 * (i + 1))
        log.close()
        snapshot = regs[0].snapshot()
        assert snapshot["series"]["stage:serialize"]["windows"] == []
        assert total(snapshot, "stage:serialize")["count"] == 60
        merged = merge_metrics_snapshots(reg.snapshot() for reg in regs)
        assert merged["series"]["stage:serialize"]["windows"] == []
        assert total(merged, "stage:serialize")["count"] == 120
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records
        assert {r["series"] for r in records} == {"requests"}

    def test_gauges_have_no_total_and_absent_series_read_zero(self):
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=4))
        reg.gauge_set("rss_bytes", 5.0, ts=10.0)
        snapshot = reg.snapshot()
        assert "total" not in snapshot["series"]["rss_bytes"]
        assert total(snapshot, "missing") == 0
        assert snapshot["uptime_s"] >= 0.0


class TestRollingReaders:
    def _snapshot(self) -> dict:
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=8))
        for ts, n in ((0.0, 5), (10.0, 3), (20.0, 2)):
            reg.counter_inc("requests", n=n, ts=ts)
        reg.observe("latency:build", 0.05, ts=21.0)
        reg.gauge_set("cpu_s", 1.0, ts=10.0)
        reg.gauge_set("cpu_s", 3.0, ts=20.0)
        return reg.snapshot()

    def test_window_sum_respects_the_horizon(self):
        snap = self._snapshot()
        assert window_sum(snap, "requests", 20.0, now=25.0) == 5  # 10,20
        assert window_sum(snap, "requests", 100.0, now=25.0) == 10
        assert window_sum(snap, "missing", 100.0, now=25.0) == 0

    def test_window_rate(self):
        snap = self._snapshot()
        assert window_rate(snap, "requests", 10.0, now=25.0) == \
            pytest.approx(0.2)  # only the ts=20 window counts
        assert window_rate(snap, "requests", 0.0, now=25.0) == 0.0

    def test_window_histogram_empty_and_populated(self):
        snap = self._snapshot()
        assert window_histogram(snap, "latency:build", 1.0,
                                now=500.0)["count"] == 0
        hist = window_histogram(snap, "latency:build", 30.0, now=25.0)
        assert hist["count"] == 1
        assert hist["p99_ms"] >= 50.0

    def test_gauge_last_and_rate(self):
        snap = self._snapshot()
        assert window_gauge_last(snap, "cpu_s") == 3.0
        assert window_gauge_last(snap, "absent", default=-1.0) == -1.0
        # (3.0 - 1.0) over the 10s between the two window starts.
        assert window_gauge_rate(snap, "cpu_s") == pytest.approx(0.2)
        assert window_gauge_rate(snap, "absent") == 0.0


class TestResourceSampler:
    def test_samples_every_series_as_gauges(self):
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=4))
        sampler = ResourceSampler(reg)
        assert sampler.sample(now=100.0)
        series = reg.snapshot()["series"]
        for name in ResourceSampler.SERIES:
            assert name in series, name
            assert series[name]["type"] == "gauge"
        assert window_gauge_last(reg.snapshot(), "rss_bytes") > 0
        assert window_gauge_last(reg.snapshot(), "threads") >= 1

    def test_rate_limit_makes_poll_storms_cheap(self):
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=4))
        sampler = ResourceSampler(reg, min_interval_s=1.0)
        assert sampler.sample(now=100.0)
        assert not sampler.sample(now=100.5)   # inside the floor
        assert not sampler.sample(now=100.99)
        assert sampler.sample(now=101.0)
        assert sampler.samples == 2


class TestEmissionRoundTrip:
    def test_closed_windows_emit_valid_metric_records(self, tmp_path):
        path = tmp_path / "events.ndjson"
        log = EventLog(str(path))
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=4),
                              log=log, meta={"shard": 2})
        for ts in (0.0, 5.0, 10.0, 20.0):
            reg.counter_inc("requests", ts=ts)
            reg.observe("latency:build", 0.01, ts=ts)
        log.close()

        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert all(r["kind"] == "metrics" for r in records)
        # Two closed windows (0 and 10) per series; 20 is still open.
        by_series = {}
        for record in records:
            by_series.setdefault(record["series"], []).append(record)
        assert [r["start_s"] for r in by_series["requests"]] == [0.0, 10.0]
        assert by_series["requests"][0]["value"] == 2
        assert all(r["shard"] == 2 for r in records)
        assert by_series["latency:build"][0]["count"] == 2

        summary, problems = check_log_lines(lines)
        assert problems == []
        assert summary["metric_windows"] == len(records)
        assert summary["metric_series"] == 2

    def test_checker_flags_overlap_backwards_and_misalignment(self):
        def metric(start, interval=10.0, pid=7, series="requests"):
            return json.dumps({"kind": "metrics", "series": series,
                               "start_s": start, "interval_s": interval,
                               "pid": pid, "value": 1})

        summary, problems = check_log_lines([
            metric(0.0), metric(3.0),      # overlaps the 0..10 window
            metric(10.0), metric(10.0),    # duplicate emit = backwards
            metric(25.0),                  # not aligned to interval
            metric(0.0, interval=-1.0),    # bad interval
            json.dumps({"kind": "metrics", "start_s": 0.0,
                        "interval_s": 10.0}),  # no series name
        ])
        text = "\n".join(problems)
        assert "overlaps the previous window" in text
        assert "went backwards" in text
        assert "not aligned to interval" in text
        assert "bad interval" in text
        assert "without a series name" in text
        assert summary["metric_windows"] == 7

    def test_checker_accepts_interleaved_processes(self):
        # Two pids emitting the same series interleave freely: the
        # monotonicity invariant is per (pid, series), not global.
        lines = []
        for start in (0.0, 10.0, 20.0):
            for pid in (1, 2):
                lines.append(json.dumps({
                    "kind": "metrics", "series": "requests",
                    "start_s": start, "interval_s": 10.0, "pid": pid,
                    "value": 1}))
        summary, problems = check_log_lines(lines)
        assert problems == []
        assert summary["metric_series"] == 2


class TestSLOMonitor:
    def _snapshot(self, requests=100, errors=0, sheds=0, latencies=(),
                  hits=0, misses=0, ts=100.0) -> dict:
        reg = MetricsRegistry(WindowConfig(interval_s=10.0, slots=8))
        if requests:
            reg.counter_inc("requests", n=requests, ts=ts)
        if errors:
            reg.counter_inc("errors", n=errors, ts=ts)
        if sheds:
            reg.counter_inc("shed", n=sheds, ts=ts)
        if hits:
            reg.counter_inc("cache_hits", n=hits, ts=ts)
        if misses:
            reg.counter_inc("cache_misses", n=misses, ts=ts)
        for seconds in latencies:
            reg.observe("latency:build", seconds, ts=ts)
        return reg.snapshot()

    def test_idle_service_is_ok_by_definition(self):
        monitor = SLOMonitor(SLOConfig(min_requests=5))
        verdict = monitor.evaluate(self._snapshot(requests=2, errors=2),
                                   now=105.0)
        assert verdict["state"] == "ok"
        assert verdict["idle"] is True
        assert verdict["reasons"] == []

    def test_error_rate_degraded_then_breached(self):
        monitor = SLOMonitor(SLOConfig(error_rate=0.05, breach_factor=2.0))
        degraded = monitor.evaluate(
            self._snapshot(requests=100, errors=8), now=105.0)
        assert degraded["state"] == "degraded"
        (reason,) = degraded["reasons"]
        assert reason["slo"] == "error_rate"
        assert reason["value"] == pytest.approx(0.08)

        breached = monitor.evaluate(
            self._snapshot(requests=100, errors=20), now=105.0)
        assert breached["state"] == "breached"

    def test_shed_rate_uses_offered_load_as_denominator(self):
        monitor = SLOMonitor(SLOConfig(shed_rate=0.10))
        verdict = monitor.evaluate(
            self._snapshot(requests=80, sheds=20), now=105.0)
        (reason,) = verdict["reasons"]
        assert reason["slo"] == "shed_rate"
        assert reason["value"] == pytest.approx(0.2)
        assert verdict["state"] == "degraded"

    def test_latency_p99_per_op_with_override(self):
        config = SLOConfig(p99_ms=1000.0,
                           p99_ms_by_op=(("build", 10.0),))
        monitor = SLOMonitor(config)
        verdict = monitor.evaluate(
            self._snapshot(latencies=[0.05] * 20), now=105.0)
        (reason,) = verdict["reasons"]
        assert reason["slo"] == "latency_p99" and reason["op"] == "build"
        assert reason["value"] >= 50.0
        assert verdict["state"] == "breached"  # 50ms > 2 * 10ms
        # An override of 0 disables the rule for that op entirely.
        off = SLOMonitor(SLOConfig(p99_ms=1000.0,
                                   p99_ms_by_op=(("build", 0.0),)))
        assert off.evaluate(self._snapshot(latencies=[0.05] * 20),
                            now=105.0)["state"] == "ok"

    def test_cache_hit_floor(self):
        monitor = SLOMonitor(SLOConfig(cache_hit_floor=0.5,
                                       breach_factor=2.0))
        verdict = monitor.evaluate(
            self._snapshot(hits=30, misses=70), now=105.0)
        (reason,) = verdict["reasons"]
        assert reason["slo"] == "cache_hit_rate"
        assert verdict["state"] == "degraded"   # 0.3 >= 0.5 / 2
        breached = monitor.evaluate(
            self._snapshot(hits=10, misses=90), now=105.0)
        assert breached["state"] == "breached"  # 0.1 < 0.25

    def test_recovery_as_windows_rotate_out_of_the_horizon(self):
        monitor = SLOMonitor(SLOConfig(error_rate=0.05, horizon_s=30.0))
        snapshot = self._snapshot(requests=100, errors=50, ts=100.0)
        assert monitor.evaluate(snapshot, now=105.0)["state"] == "breached"
        # The same snapshot, read after the horizon has moved on.
        assert monitor.evaluate(snapshot, now=200.0)["state"] == "ok"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(horizon_s=0.0)
        with pytest.raises(ValueError):
            SLOConfig(breach_factor=0.5)
        with pytest.raises(ValueError):
            SLOConfig(error_rate=-0.1)
        with pytest.raises(ValueError):
            SLOConfig(cache_hit_floor=1.5)

    def test_config_is_picklable(self):
        import pickle
        config = SLOConfig(p99_ms=250.0, p99_ms_by_op=(("build", 500.0),))
        assert pickle.loads(pickle.dumps(config)) == config

    def test_worst_state_and_merge_verdicts(self):
        assert worst_state() == "ok"
        assert worst_state("ok", "degraded") == "degraded"
        assert worst_state("breached", "degraded", "ok") == "breached"
        assert worst_state("garbage") == "ok"

        overall = {"state": "ok", "reasons": [], "requests": 10}
        shard = {"state": "degraded",
                 "reasons": [{"slo": "error_rate", "severity": "degraded",
                              "value": 0.2, "target": 0.05}]}
        merged = merge_verdicts(overall, ("shard:1", shard),
                                ("frontend", {}), ("shard:2", None))
        assert merged["state"] == "degraded"
        (reason,) = merged["reasons"]
        assert reason["source"] == "shard:1"
        assert merged["requests"] == 10
