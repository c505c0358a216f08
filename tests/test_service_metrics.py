"""Service metrics merge edge cases.

The shard layer builds one cluster-wide view by merging the workers'
:class:`~repro.obs.MetricsRegistry` snapshots
(:func:`~repro.obs.merge_metrics_snapshots`) and reading the ``stats``
sections from the merge (:func:`repro.service.engine.stats_sections`).
So the degenerate shapes -- no shards, shards that saw disjoint
operations -- must merge cleanly, and the all-time histogram totals
must merge exactly and order-independently.
"""

import json
import random

import pytest

from repro.obs import MetricsRegistry, merge_metrics_snapshots
from repro.obs.metrics import total
from repro.service.engine import stats_sections


def _metrics_with(samples: dict[str, list[float]]) -> MetricsRegistry:
    """A registry recording ``samples`` as the engine does: one
    ``latency:<op>`` observation and one ``requests`` count each."""
    metrics = MetricsRegistry()
    for op, values in samples.items():
        for value in values:
            metrics.observe(f"latency:{op}", value)
            metrics.counter_inc("requests")
    return metrics


def _sections(snapshots) -> dict:
    return stats_sections(merge_metrics_snapshots(snapshots))


def test_empty_input_merges_to_an_empty_snapshot():
    merged = _sections([])["metrics"]
    assert merged["operations"] == {}
    assert merged["total_operations"] == 0
    assert merged["throughput_per_s"] == 0.0
    assert merged["uptime_s"] == 0.0


def test_snapshot_without_operations_key_is_tolerated():
    merged = _sections([{"interval_s": 10.0},
                        {"interval_s": 10.0, "uptime_s": 2.0}])["metrics"]
    assert merged["operations"] == {}
    assert merged["uptime_s"] == 2.0
    assert merged["throughput_per_s"] == 0.0


def test_disjoint_operation_sets_union():
    a = _metrics_with({"build": [0.01, 0.02]}).snapshot()
    b = _metrics_with({"customize": [0.005]}).snapshot()
    c = _metrics_with({"refine": [0.5], "build": [0.04]}).snapshot()
    merged = _sections([a, b, c])["metrics"]
    ops = merged["operations"]
    assert set(ops) == {"build", "customize", "refine"}
    assert ops["build"]["count"] == 3
    assert ops["customize"]["count"] == 1
    assert merged["total_operations"] == 5
    assert total(merged["windows"], "requests") == 5


def test_merged_percentiles_equal_union_of_observations():
    rng = random.Random(11)
    union = MetricsRegistry()
    shards = []
    for _ in range(5):
        shard = MetricsRegistry()
        for _ in range(300):
            value = rng.uniform(1e-5, 0.3)
            shard.observe("latency:build", value)
            union.observe("latency:build", value)
        shards.append(shard.snapshot())
    merged = _sections(shards)["metrics"]["operations"]["build"]
    expected = total(union.snapshot(), "latency:build")
    for key in ("count", "p50_ms", "p90_ms", "p95_ms", "p99_ms",
                "min_ms", "max_ms", "buckets"):
        assert merged[key] == expected[key], key
    assert merged["total_ms"] == pytest.approx(expected["total_ms"])


def test_merge_is_order_independent():
    shards = []
    for seed in range(4):
        rng = random.Random(seed)
        shards.append(_metrics_with(
            {"build": [rng.uniform(1e-4, 0.1) for _ in range(100)]}
        ).snapshot())
    forward = merge_metrics_snapshots(shards)["series"]
    shuffled = merge_metrics_snapshots(list(reversed(shards)))["series"]
    for name in ("requests", "latency:build"):
        assert forward[name]["total"] == shuffled[name]["total"], name


def test_merge_survives_json_round_trip():
    # Snapshots cross the process boundary as JSON: string bucket keys
    # must merge with in-process integer ones.
    shard = _metrics_with({"build": [0.01, 0.02, 0.2]})
    wire = json.loads(json.dumps(shard.snapshot()))
    merged = _sections([wire, shard.snapshot()])["metrics"]
    assert merged["operations"]["build"]["count"] == 6
    assert merged["total_operations"] == 6
    assert (merged["operations"]["build"]["p99_ms"]
            == total(shard.snapshot(), "latency:build")["p99_ms"])


def test_zero_count_operations_do_not_divide():
    empty = {"interval_s": 10.0, "uptime_s": 0.0, "series": {
        "latency:build": {"type": "histogram", "windows": [],
                          "total": {"count": 0, "total_ms": 0.0,
                                    "min_ms": 0.0, "max_ms": 0.0,
                                    "buckets": {}}}}}
    merged = _sections([empty, empty])["metrics"]
    assert merged["operations"]["build"]["count"] == 0
    assert merged["operations"]["build"]["mean_ms"] == 0.0
    assert merged["throughput_per_s"] == 0.0


def test_uptime_is_cluster_wall_clock_not_a_sum():
    a = {"interval_s": 10.0, "uptime_s": 2.0, "series": {}}
    b = {"interval_s": 10.0, "uptime_s": 3.0, "series": {}}
    assert _sections([a, b])["metrics"]["uptime_s"] == 3.0
