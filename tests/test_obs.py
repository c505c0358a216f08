"""The observability layer: log-bucketed histograms, trace contexts,
span collection, the slowest-trace ring, the NDJSON event log and its
validator.

Histogram merges are the load-bearing guarantee -- cluster-wide
percentiles must equal percentiles over the union of observations, in
any merge order -- so those tests compare against brute-force unions.
"""

import json
import math
from unittest import mock

import pytest

from repro.obs import (
    EventLog,
    LogHistogram,
    ObsConfig,
    SlowTraceRing,
    TraceContext,
    Tracer,
    merge_snapshot_dicts,
    stage,
)
from repro.obs.check import check_log_lines
from repro.obs.histogram import bucket_index, bucket_upper_s
from repro.obs.metrics import PENDING, merge_metrics_snapshots
from repro.service.engine import obs_section, tracer_obs


class _Clock:
    """A settable stand-in for the tracer's ``perf_counter``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def timed_request(tracer: Tracer, name: str, seconds: float) -> None:
    """One request holding one ``name`` stage that takes exactly
    ``seconds`` by the tracer's clock."""
    clock = _Clock()
    with mock.patch("repro.obs.trace.perf_counter", clock):
        with tracer.activate("serve:build"):
            with stage(name):
                clock.now = seconds


def obs_of(tracer: Tracer) -> dict:
    """The ``obs`` stats section a process with this tracer reports."""
    return tracer_obs(tracer, tracer.metrics.snapshot())


def merged_obs(*tracers: Tracer) -> dict:
    """The cluster ``obs`` section over these tracers' registries."""
    return obs_section(merge_metrics_snapshots(
        [t.metrics.snapshot() for t in tracers]), True)


class TestLogHistogram:
    def test_empty_snapshot_is_all_zero(self):
        snap = LogHistogram().snapshot()
        assert snap["count"] == 0
        assert snap["mean_ms"] == 0.0
        assert snap["p50_ms"] == 0.0 and snap["p99_ms"] == 0.0
        assert snap["buckets"] == {}

    def test_quantiles_bound_observations(self):
        hist = LogHistogram()
        samples = [0.001, 0.002, 0.004, 0.008, 0.2]
        for s in samples:
            hist.record(s)
        snap = hist.snapshot()
        assert snap["count"] == len(samples)
        # Bucketed quantiles land on a bucket's upper edge: never below
        # the true quantile, and within one growth factor above it.
        assert snap["p50_ms"] >= 4.0
        assert snap["p99_ms"] >= 200.0
        assert snap["p50_ms"] <= snap["p90_ms"] <= snap["p99_ms"]
        assert snap["min_ms"] == pytest.approx(1.0)
        assert snap["max_ms"] == pytest.approx(200.0)

    def test_bucket_relative_error_is_bounded(self):
        # Growth 2^(1/8): upper edge within ~9.1% of any sample.
        for seconds in (1e-6, 3.7e-5, 1e-3, 0.25, 2.0, 50.0):
            upper = bucket_upper_s(bucket_index(seconds))
            assert seconds <= upper <= seconds * 2 ** 0.125 * 1.0001

    def test_merge_equals_union(self):
        import random
        rng = random.Random(5)
        parts = []
        union = LogHistogram()
        for _ in range(4):
            hist = LogHistogram()
            for _ in range(200):
                value = rng.uniform(1e-5, 0.5)
                hist.record(value)
                union.record(value)
            parts.append(hist.snapshot())
        merged = merge_snapshot_dicts(parts)
        expected = union.snapshot()
        for key in ("count", "p50_ms", "p90_ms", "p95_ms", "p99_ms",
                    "min_ms", "max_ms"):
            assert merged[key] == expected[key], key
        assert merged["total_ms"] == pytest.approx(expected["total_ms"])

    def test_merge_is_order_independent(self):
        a, b, c = LogHistogram(), LogHistogram(), LogHistogram()
        for i, hist in enumerate((a, b, c)):
            for j in range(50):
                hist.record((i + 1) * (j + 1) * 1e-4)
        snaps = [a.snapshot(), b.snapshot(), c.snapshot()]
        forward = merge_snapshot_dicts(snaps)
        backward = merge_snapshot_dicts(list(reversed(snaps)))
        assert forward == backward

    def test_merge_tolerates_empty_and_zero_count(self):
        assert merge_snapshot_dicts([])["count"] == 0
        assert merge_snapshot_dicts([])["p99_ms"] == 0.0
        hist = LogHistogram()
        hist.record(0.01)
        merged = merge_snapshot_dicts([LogHistogram().snapshot(),
                                       hist.snapshot()])
        assert merged["count"] == 1
        assert merged["min_ms"] == pytest.approx(10.0, rel=0.1)

    def test_json_round_trip_preserves_merge(self):
        hist = LogHistogram()
        for value in (1e-4, 2e-3, 0.5):
            hist.record(value)
        snap = json.loads(json.dumps(hist.snapshot()))
        merged = merge_snapshot_dicts([snap, snap])
        assert merged["count"] == 6
        assert merged["p99_ms"] == hist.snapshot()["p99_ms"]

    def test_non_positive_durations_count_in_first_bucket(self):
        hist = LogHistogram()
        hist.record(0.0)
        hist.record(-1.0)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert math.isfinite(snap["p99_ms"])


class TestTraceContext:
    def test_wire_round_trip(self):
        ctx = TraceContext(trace_id="abc", span_id="s1", sent_s=12.5,
                           sampled=False)
        back = TraceContext.from_wire(ctx._asdict())
        assert back == ctx

    @pytest.mark.parametrize("garbage", [
        None, 7, "x", [], {}, {"trace_id": 3}, {"trace_id": ""},
        {"span_id": "s"},
    ])
    def test_garbage_yields_none(self, garbage):
        assert TraceContext.from_wire(garbage) is None

    def test_bad_optional_fields_degrade(self):
        ctx = TraceContext.from_wire({"trace_id": "t", "span_id": 5,
                                      "sent_s": "soon"})
        assert ctx is not None
        assert ctx.span_id is None and ctx.sent_s is None


class TestTracer:
    def test_stage_without_activation_is_noop(self):
        with stage("anything"):
            pass  # must not raise, record, or allocate per call
        assert PENDING.get() is None

    def test_activation_collects_a_complete_span_tree(self):
        tracer = Tracer()
        with tracer.activate("serve:build") as act:
            assert act is not None
            with stage("outer", city="paris"):
                with stage("inner"):
                    pass
        traces = tracer.slowest_traces()
        assert len(traces) == 1
        spans = traces[0]["spans"]
        assert {s["name"] for s in spans} == {"serve:build", "outer",
                                              "inner"}
        by_name = {s["name"]: s for s in spans}
        assert by_name["serve:build"]["parent_id"] is None
        assert by_name["outer"]["parent_id"] == by_name["serve:build"]["span_id"]
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["city"] == "paris"
        summary, problems = check_log_lines(
            json.dumps(dict(s, kind="span")) for s in spans
        )
        assert problems == []
        assert summary["traces"] == 1

    def test_histograms_cover_every_request_spans_only_sampled(self):
        tracer = Tracer(sample_rate=0.0)
        with tracer.activate("serve:build") as act:
            assert act is not None and not act.sampled
            with stage("assemble", city="rome"):
                pass
        assert tracer.slowest_traces() == []
        snap = obs_of(tracer)
        assert snap["stages"]["assemble"]["count"] == 1
        assert snap["cities"]["rome"]["count"] == 1
        assert snap["counters"]["traces"] == 0
        # Stage series keep only their all-time slot: no window ring.
        series = tracer.metrics.snapshot()["series"]
        assert series["stage:assemble"]["windows"] == []
        assert series["stage_city:rome"]["windows"] == []

    def test_disabled_tracer_yields_none_and_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.activate("serve:build") as act:
            assert act is None
            with stage("assemble"):
                pass
        obs = obs_of(tracer)
        assert obs["enabled"] is False
        assert obs["stages"] == {} and obs["cities"] == {}
        assert obs["counters"] == {"traces": 0, "spans": 0, "errors": 0}

    def test_election_is_deterministic_across_tracers(self):
        a = Tracer(sample_rate=0.37)
        b = Tracer(sample_rate=0.37)
        ids = [f"trace-{i}" for i in range(200)]
        decisions = [a.elects(t) for t in ids]
        assert decisions == [b.elects(t) for t in ids]
        assert any(decisions) and not all(decisions)

    def test_queue_wait_recorded_from_upstream_stamp(self):
        tracer = Tracer()
        ctx = TraceContext(trace_id="t1", span_id="fe-1", sent_s=0.0)
        with tracer.activate("serve:build", ctx):
            pass
        snap = obs_of(tracer)
        assert snap["stages"]["queue_wait"]["count"] == 1
        trace = tracer.slowest_traces()[0]
        names = {s["name"] for s in trace["spans"]}
        assert names == {"serve:build", "queue_wait"}
        assert all(s["trace_id"] == "t1" for s in trace["spans"])

    def test_error_spans_carry_the_failure(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.activate("serve:build"):
                with stage("assemble"):
                    raise ValueError("boom")
        spans = tracer.slowest_traces()[0]["spans"]
        by_name = {s["name"]: s for s in spans}
        assert "boom" in by_name["assemble"]["error"]
        assert "boom" in by_name["serve:build"]["error"]

    def test_merged_obs_sums_exactly(self):
        a, b = Tracer(), Tracer()
        for tracer, ms in ((a, 0.01), (b, 0.05)):
            with tracer.activate("serve:build"):
                with stage("assemble", city="paris"):
                    pass
            timed_request(tracer, "assemble", ms)
        merged = obs_section(merge_metrics_snapshots(
            [a.metrics.snapshot(), None, b.metrics.snapshot()]), True)
        assert merged["stages"]["assemble"]["count"] == 4
        assert merged["cities"]["paris"]["count"] == 2
        assert merged["counters"]["traces"] == 4
        assert merged["stages"]["assemble"]["max_ms"] == pytest.approx(50.0)
        for name, hist in obs_of(a)["stages"].items():
            assert merged["stages"][name]["count"] == (
                hist["count"] + obs_of(b)["stages"][name]["count"])

    def test_merged_obs_is_order_independent(self):
        import itertools

        tracers = [Tracer() for _ in range(3)]
        for i, tracer in enumerate(tracers):
            for j in range(i + 2):
                with tracer.activate("serve:build"):
                    with stage("assemble", city=("paris", "rome")[j % 2]):
                        pass
                    with stage(f"stage-{i}"):
                        pass
            tracer.error("boom")
        snapshots = [t.metrics.snapshot() for t in tracers]
        views = [obs_section(merge_metrics_snapshots(order), True)
                 for order in itertools.permutations(snapshots)]
        assert all(view == views[0] for view in views)
        assert views[0]["counters"] == {"traces": 9, "spans": 27,
                                        "errors": 3}

    def test_cluster_obs_sums_log_written_and_dropped(self, tmp_path):
        # Best-effort event logs drop silently per process; the
        # cluster's stats must total written/dropped so the loss is
        # visible cluster-wide.
        from repro.service import (
            CityRegistry,
            PackageService,
            ShardCluster,
            ShardConfig,
        )

        services = [
            PackageService(CityRegistry(), shard=i, obs=ObsConfig(
                log_path=str(tmp_path / f"{i}.ndjson")))
            for i in range(2)
        ]
        services[0].dispatch("ping", {})
        services[1].tracer.log.close()  # every subsequent write drops
        services[1].dispatch("ping", {})
        with ShardCluster(shards=2, config=ShardConfig(),
                          use_processes=False,
                          service_factory=services.__getitem__) as cluster:
            stats = cluster.stats()
        assert stats["obs"]["log"]["written"] >= 1
        assert stats["obs"]["log"]["dropped"] >= 1
        assert stats["obs"]["log"] == {
            key: sum(s["obs"]["log"][key] for s in stats["shards"])
            for key in ("written", "dropped")}
        services[0].close()
        # Logless tracers merge without inventing a log section.
        with ShardCluster(shards=1, config=ShardConfig(),
                          use_processes=False) as cluster:
            assert "log" not in cluster.stats()["obs"]

    def test_hist_key_table_is_bounded(self):
        tracer = Tracer(sample_rate=0.0)  # no obs.* series
        for i in range(500):
            with tracer.activate("serve:build"):
                with stage(f"client-controlled-{i}", city=f"city-{i}"):
                    pass
        obs = obs_of(tracer)
        for table in ("stages", "cities"):
            assert len(obs[table]) <= 129  # _MAX_NAMES + __other__
        # The root's serve:build holds one of the 128 stage names.
        assert obs["stages"]["__other__"]["count"] == 500 - 127
        assert obs["cities"]["__other__"]["count"] == 500 - 128
        series = tracer.metrics.snapshot()["series"]
        assert len(series) <= 2 * 129
        assert not any(name.startswith("latency:") for name in series)

    def test_failed_stage_records_no_city(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            with tracer.activate("serve:build"):
                with stage("city_generate", city="nowhere"):
                    raise KeyError("nowhere")
        obs = obs_of(tracer)
        assert obs["stages"]["city_generate"]["count"] == 1
        assert "nowhere" not in obs["cities"]


class TestSlowTraceRing:
    def test_keeps_the_slowest(self):
        ring = SlowTraceRing(capacity=3)
        for ms in (5.0, 30.0, 1.0, 20.0, 50.0):
            ring.offer({"trace_id": f"t{ms}", "duration_ms": ms})
        slowest = ring.slowest()
        assert [t["duration_ms"] for t in slowest] == [50.0, 30.0, 20.0]
        assert ring.slowest(limit=1)[0]["duration_ms"] == 50.0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SlowTraceRing(capacity=0)


class TestMergeTraces:
    def test_portions_union_by_trace_id(self):
        front = [{"trace_id": "t1", "name": "request:build",
                  "duration_ms": 10.0,
                  "spans": [{"span_id": "f1"}, {"span_id": "f2"}]}]
        worker = [{"trace_id": "t1", "name": "serve:build",
                   "duration_ms": 8.0, "shard": 1,
                   "spans": [{"span_id": "w1"}]},
                  {"trace_id": "t2", "name": "serve:build",
                   "duration_ms": 30.0, "spans": [{"span_id": "w2"}]}]
        merged = Tracer.merge_traces([front, worker])
        assert [t["trace_id"] for t in merged] == ["t2", "t1"]
        t1 = merged[1]
        assert {s["span_id"] for s in t1["spans"]} == {"f1", "f2", "w1"}
        assert t1["duration_ms"] == 10.0  # the largest portion wins
        assert t1["name"] == "request:build"

    def test_limit_none_returns_everything(self):
        traces = [[{"trace_id": f"t{i}", "duration_ms": float(i),
                    "spans": []}] for i in range(40)]
        assert len(Tracer.merge_traces(traces, limit=None)) == 40
        assert len(Tracer.merge_traces(traces, limit=5)) == 5

    def test_duplicate_spans_are_not_doubled(self):
        portion = {"trace_id": "t", "duration_ms": 1.0,
                   "spans": [{"span_id": "s1"}]}
        merged = Tracer.merge_traces([[portion], [portion]])
        assert len(merged[0]["spans"]) == 1


class TestEventLog:
    def test_spans_logged_as_ndjson(self, tmp_path):
        path = tmp_path / "events.ndjson"
        config = ObsConfig(log_path=str(path))
        tracer = config.make_tracer(shard=3)
        with tracer.activate("serve:build"):
            with stage("assemble", city="paris"):
                pass
        tracer.error("kaboom", code="failed", city="paris")
        tracer.close()
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = [r["kind"] for r in records]
        assert kinds.count("span") == 2 and kinds.count("error") == 1
        assert all(r["shard"] == 3 for r in records if r["kind"] == "span")
        summary, problems = check_log_lines(lines)
        assert problems == []
        assert summary["errors"] == 1

    def test_write_failures_never_raise(self, tmp_path):
        path = tmp_path / "events.ndjson"
        log = EventLog(str(path))
        log.close()
        log.write("span", {"x": 1})  # closed handle: dropped, not raised
        assert log.stats()["dropped"] == 1

    def test_unserializable_values_are_coerced(self, tmp_path):
        path = tmp_path / "events.ndjson"
        log = EventLog(str(path))
        log.write("error", {"value": object()})
        log.close()
        assert log.stats()["written"] == 1
        json.loads(path.read_text())


class TestCheckLogLines:
    def test_flags_broken_trees_and_bad_lines(self):
        lines = [
            "not json",
            json.dumps({"no_kind": True}),
            json.dumps({"kind": "span", "trace_id": "t", "span_id": "a",
                        "name": "root", "duration_ms": 1.0,
                        "parent_id": None}),
            json.dumps({"kind": "span", "trace_id": "t", "span_id": "b",
                        "name": "child", "duration_ms": 0.5,
                        "parent_id": "missing"}),
            json.dumps({"kind": "span", "trace_id": "u", "span_id": "c",
                        "name": "orphan", "duration_ms": float("nan"),
                        "parent_id": None}),
        ]
        summary, problems = check_log_lines(lines)
        text = "\n".join(problems)
        assert "not JSON" in text
        assert "not an event object" in text
        assert "dangling parent" in text
        assert "bad duration" in text
        assert summary["traces"] == 2

    def test_empty_log_is_clean(self):
        summary, problems = check_log_lines([])
        assert problems == [] and summary["records"] == 0

    def test_main_json_output_is_machine_readable(self, tmp_path, capsys):
        from repro.obs.check import main

        log = tmp_path / "events.ndjson"
        log.write_text(json.dumps({
            "kind": "span", "trace_id": "t", "span_id": "a",
            "name": "root", "duration_ms": 1.0, "parent_id": None,
        }) + "\n")
        assert main([str(log), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["summary"]["traces"] == 1
        assert report["problems"] == []

        # --min-traces failures surface in the JSON, not just the exit.
        assert main([str(log), "--json", "--min-traces", "5"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert any("expected at least 5" in p for p in report["problems"])


class TestObsConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObsConfig(sample_rate=1.5)
        with pytest.raises(ValueError):
            ObsConfig(slowest=0)

    def test_disabled_config_makes_logless_tracer(self, tmp_path):
        config = ObsConfig(enabled=False, log_path=str(tmp_path / "x"))
        tracer = config.make_tracer()
        assert not tracer.enabled and tracer.log is None

    def test_config_is_picklable(self):
        import pickle
        config = ObsConfig(sample_rate=0.5, slowest=8, log_path="-")
        assert pickle.loads(pickle.dumps(config)) == config
