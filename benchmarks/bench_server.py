"""Serving-tier benchmarks: shard scaling and saturation behavior.

Two acceptance gates for the sharded tier, run over **real process
workers** (fork + pickle + IPC, exactly the deployment shape):

* ``test_two_shards_outscale_one`` -- a cold-build-heavy cycling
  workload (two cities, working set larger than one worker's package
  cache) must run >= 1.5x faster on a 2-shard cluster than on a
  1-shard cluster **with identical per-shard resources**.  Scale-out
  adds both CPU and cache memory: each shard owns only its city's
  working set, so what cycles through a single worker's LRU as an
  endless cold-build storm becomes warm hits on the owning shard --
  and on multi-core hosts the two workers additionally overlap their
  remaining cold builds.
* ``test_saturating_load_is_bounded_and_hang_free`` -- a deliberately
  oversubscribed loadgen run against the NDJSON front-end must finish
  within a deadline (zero hung connections), keep in-flight requests
  at or under ``max_inflight`` the whole time, and answer every
  request either successfully or with a structured ``overloaded``
  shed -- never an unclassified error, never silence.

Two observability gates ride along: always-on tracing and 1 Hz
``stats``+``health`` polling (with the per-process resource sampler)
must each cost <= 5% of engine throughput / request p50.  Tracing is
gated on cold builds and on warm cache hits, the cheapest request.
Both gates time requests at perfbench's reference speed
(:mod:`perfbench.reference`): each request is followed by a slice of
fixed reference work, and its time is scaled by the slices around it,
so a stretch of slow host does not read as overhead.

Not pytest-benchmark microbenches: all are wall-clock comparisons
with hard asserts, so a routing or admission-control regression fails
the suite instead of silently skewing numbers.
"""

import asyncio
import statistics
import sys
import threading
import time
from pathlib import Path

import pytest

import telemetry

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import reference  # noqa: E402  (read-only: the slices)
from repro.service import (
    LoadgenConfig,
    PackageServer,
    ShardCluster,
    ShardConfig,
    build_workload,
)
from repro.service.loadgen import run_tcp

#: Identical per-shard resources in every cluster under test; the only
#: experimental variable is the shard count.
SHARD_CONFIG = ShardConfig(scale=0.3, lda_iterations=30, seed=2019,
                           cache_capacity=16)
CITIES = ("paris", "barcelona")

#: 12 distinct groups per city x 2 cities = 24 distinct build keys --
#: deliberately larger than one shard's 16-entry cache (cycling evicts
#: everything: pure cold builds) and smaller than two shards' aggregate
#: (12 keys per shard: warm after the first pass).
GROUPS_PER_CITY = 12
PASSES = 3


def cycling_workload() -> list[dict]:
    """The cold-build-heavy request stream, pass by pass."""
    payloads = []
    for _ in range(PASSES):
        for spec_seed in range(GROUPS_PER_CITY):
            for city in CITIES:
                payloads.append({
                    "city": city,
                    "group_spec": {"size": 5, "seed": spec_seed},
                })
    return payloads


def reference_timed(call) -> tuple[float, float]:
    """Run ``call``; its wall ms and the mean reference-slice ms
    sampled right after it (untimed)."""
    started = time.perf_counter()
    call()
    ms = (time.perf_counter() - started) * 1000.0
    return ms, reference.sample_ms(ms)


def timed_run(shards: int) -> tuple[float, dict]:
    """Wall-clock seconds to serve the cycling workload on a fresh
    ``shards``-worker cluster (warmup excluded), plus final stats."""
    with ShardCluster(shards=shards, config=SHARD_CONFIG,
                      cities=list(CITIES)) as cluster:
        cluster.warm(CITIES)  # LDA/FCM fits excluded from the timing
        started = time.perf_counter()
        futures = [cluster.submit("build", payload)
                   for payload in cycling_workload()]
        responses = [f.result() for f in futures]
        elapsed = time.perf_counter() - started
        assert all(r["error"] is None for r in responses)
        return elapsed, cluster.stats()


def test_two_shards_outscale_one():
    """Acceptance gate: 2-shard throughput >= 1.5x single-shard."""
    single_s, single_stats = timed_run(shards=1)
    sharded_s, sharded_stats = timed_run(shards=2)

    requests = len(cycling_workload())
    speedup = single_s / sharded_s
    print(f"\n{requests} cold-build-heavy requests: "
          f"1 shard {single_s:.2f}s ({requests / single_s:.0f} req/s, "
          f"{single_stats['cache']['hits']} cache hits), "
          f"2 shards {sharded_s:.2f}s ({requests / sharded_s:.0f} req/s, "
          f"{sharded_stats['cache']['hits']} cache hits) "
          f"-> {speedup:.2f}x")

    telemetry.emit("server", telemetry.record(
        "shard_scaling", requests=requests, single_s=single_s,
        sharded_s=sharded_s, speedup=speedup))

    # The mechanism, not just the outcome: the single worker's cache
    # cycles (nearly all misses), the sharded workers' caches hold.
    assert single_stats["cache"]["hits"] == 0
    assert (sharded_stats["cache"]["hits"]
            == requests - GROUPS_PER_CITY * len(CITIES))
    assert speedup >= 1.5


def test_saturating_load_is_bounded_and_hang_free():
    """Acceptance gate: saturation degrades into bounded in-flight work
    and structured sheds; every connection completes."""
    max_inflight = 4
    connections = 8
    config = LoadgenConfig(cities=CITIES, actions=60, seed=5,
                           mix=(("cold", 0.7), ("warm", 0.3)))
    workload = build_workload(config)

    async def scenario():
        with ShardCluster(shards=2, config=SHARD_CONFIG,
                          cities=list(CITIES)) as cluster:
            cluster.warm(CITIES)
            server = PackageServer(cluster, max_inflight=max_inflight)
            host, port = await server.start(port=0)
            try:
                # The deadline IS the hang detector: every connection
                # must finish its slice and close.
                report = await asyncio.wait_for(
                    run_tcp(host, port, workload, connections=connections),
                    timeout=120,
                )
            finally:
                await server.drain(timeout=5)
            return report, server.stats()

    report, front = asyncio.run(scenario())

    print(f"\nsaturation: {report.sent} actions over {connections} "
          f"connections (limit {max_inflight} in flight): {report.ok} ok, "
          f"{report.shed} shed, {report.errors} errors; "
          f"peak in-flight {front['peak_inflight']}")

    telemetry.emit("server", telemetry.record(
        "saturation", sent=report.sent, ok=report.ok, shed=report.shed,
        errors=report.errors, peak_inflight=front["peak_inflight"]))

    assert report.sent == len(workload)          # every action answered
    assert report.errors == 0                    # sheds only, no failures
    assert report.ok > 0
    assert 0 < front["peak_inflight"] <= max_inflight
    assert front["connections_open"] == 0        # nothing left hanging
    assert front["accepted"] + front["shed"] == report.sent


def test_tracing_overhead_under_five_percent():
    """Acceptance gate: always-on tracing costs <= 5% engine throughput.

    Each arm dispatches the same stream through a
    :class:`PackageService` over one pre-fitted registry (city fits
    excluded), differing only in ``obs``: full tracing (sample rate
    1.0, stage histograms, span collection) versus
    ``ObsConfig(enabled=False)`` (every ``stage()`` call hits the
    no-op timer).  Two streams: cold builds, where tracing is densest
    per request (every engine stage), and warm cache hits, where the
    request is cheapest and tracing's fixed cost weighs most.  A pass's
    time is its requests' times at the reference speed; arms are
    interleaved and scored best-of-N, and tracing is measured in the
    engine rather than behind IPC jitter.
    """
    from repro.obs import ObsConfig
    from repro.service import CityRegistry, PackageService

    registry = CityRegistry(seed=2019, scale=0.3, lda_iterations=30)
    for city in CITIES:
        registry.entry(city)  # LDA/FCM fits excluded from the timing

    # Cold: 30 distinct groups per city against an 8-entry cache, so
    # every request is a genuine cold build.  Warm: 8 groups per city
    # primed into a 64-entry cache and served 10 times each per pass.
    cold = [{"city": city, "group_spec": {"size": 5, "seed": seed}}
            for seed in range(30) for city in CITIES]
    warm = [{"city": city, "group_spec": {"size": 5, "seed": seed}}
            for seed in range(8) for city in CITIES] * 10

    def one_pass(service: PackageService, payloads: list[dict]) -> float:
        """Summed request ms at the reference speed over one pass."""
        times, refs = [], []
        for payload in payloads:
            response = None

            def dispatch() -> None:
                nonlocal response
                response = service.dispatch("build", dict(payload))

            ms, ref = reference_timed(dispatch)
            assert response["error"] is None
            times.append(ms)
            refs.append(ref)
        return sum(reference.normalized(times, refs))

    results = {}
    for arm, payloads, capacity in (("cold", cold, 8), ("warm", warm, 64)):
        traced = PackageService(registry, cache_capacity=capacity,
                                obs=ObsConfig())
        untraced = PackageService(registry, cache_capacity=capacity,
                                  obs=ObsConfig(enabled=False))
        try:
            # Warm both paths once (and prime the warm arm's caches).
            one_pass(traced, payloads), one_pass(untraced, payloads)
            traced_best = untraced_best = float("inf")
            for _ in range(3):
                traced_best = min(traced_best, one_pass(traced, payloads))
                untraced_best = min(untraced_best,
                                    one_pass(untraced, payloads))
            stages = traced.stats()["obs"]["stages"]
        finally:
            traced.close()
            untraced.close()
        overhead = traced_best / untraced_best - 1.0
        results[arm] = overhead
        print(f"\ntracing overhead ({arm}): traced {traced_best:.1f}ms vs "
              f"untraced {untraced_best:.1f}ms at the reference speed over "
              f"{len(payloads)} builds -> {overhead:+.1%}")
        telemetry.emit("server", telemetry.record(
            f"tracing_overhead_{arm}", traced_ms=traced_best,
            untraced_ms=untraced_best, overhead=overhead))
        stage = "assemble" if arm == "cold" else "cache_lookup"
        assert stages[stage]["count"] >= len(payloads)
    assert results["cold"] <= 0.05
    assert results["warm"] <= 0.05


def test_polling_overhead_under_five_percent():
    """Acceptance gate: live telemetry costs <= 5% request p50.

    One arm serves the cold-build stream while a background thread
    polls ``stats`` + ``health`` at 1 Hz -- each poll walks the window
    rings, merges snapshots, runs the resource sampler, and evaluates
    the SLO monitor, exactly what a ``repro.obs.top`` session or a CI
    health gate inflicts on a live server.  The other arm serves the
    same stream unpolled.  The gate: polling adds <= 5% to the
    per-request p50 at the reference speed.  Arms are interleaved and
    scored best-of-N like the tracing gate.
    """
    from repro.service import CityRegistry, PackageService

    registry = CityRegistry(seed=2019, scale=0.3, lda_iterations=30)
    for city in CITIES:
        registry.entry(city)  # LDA/FCM fits excluded from the timing

    payloads = [{"city": city, "group_spec": {"size": 5, "seed": seed}}
                for seed in range(30) for city in CITIES]

    def one_pass(service: PackageService, poll: bool) -> float:
        """Per-request p50 ms at the reference speed over one pass,
        optionally with the 1 Hz stats+health poller running
        alongside."""
        stop = threading.Event()

        def poller() -> None:
            while True:
                service.dispatch("stats", {})
                service.dispatch("health", {})
                if stop.wait(1.0):
                    return

        thread = threading.Thread(target=poller, daemon=True)
        if poll:
            thread.start()
        times, refs = [], []
        try:
            for payload in payloads:
                response = None

                def dispatch() -> None:
                    nonlocal response
                    response = service.dispatch("build", dict(payload))

                ms, ref = reference_timed(dispatch)
                assert response["error"] is None
                times.append(ms)
                refs.append(ref)
        finally:
            stop.set()
            if poll:
                thread.join()
        return statistics.median(reference.normalized(times, refs))

    polled = PackageService(registry, cache_capacity=8)
    unpolled = PackageService(registry, cache_capacity=8)
    try:
        one_pass(polled, True), one_pass(unpolled, False)  # warm both
        polled_best = unpolled_best = float("inf")
        for _ in range(3):
            polled_best = min(polled_best, one_pass(polled, True))
            unpolled_best = min(unpolled_best, one_pass(unpolled, False))
    finally:
        polled.close()
        unpolled.close()

    overhead = polled_best / unpolled_best - 1.0
    print(f"\npolling overhead: polled p50 {polled_best:.2f}ms vs "
          f"unpolled {unpolled_best:.2f}ms at the reference speed over "
          f"{len(payloads)} cold builds -> {overhead:+.1%}")
    telemetry.emit("server", telemetry.record(
        "polling_overhead", polled_p50_ms=polled_best,
        unpolled_p50_ms=unpolled_best, overhead=overhead))
    assert overhead <= 0.05


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
