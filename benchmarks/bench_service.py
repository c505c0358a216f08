"""Serving-path benchmarks: cold vs. warm-cache builds and batch
throughput.

Not a paper table -- the numbers the ROADMAP's serving trajectory
tracks: what one `PackageService.build` costs when the LRU package
cache misses (full KFC assembly) vs. hits (dict lookup + response
shaping), and what `build_batch` costs for 12 cold requests (served
one after another on the calling thread).

``test_warm_cache_speedup`` additionally *asserts* the headline claim
(warm >= 5x faster than cold for a repeated (profile, query) pair), so
a caching regression fails the bench suite instead of silently skewing
timings.
"""

import time

import pytest

import telemetry
from repro.core.query import DEFAULT_QUERY
from repro.service import BuildRequest, CityRegistry, GroupSpec, PackageService


@pytest.fixture(scope="module")
def registry(bench_ctx):
    """A registry serving the shared bench city through its pre-fitted
    assets (one LDA fit for the whole bench session)."""
    app = bench_ctx.app("paris")
    registry = CityRegistry(seed=bench_ctx.config.seed,
                            scale=bench_ctx.config.scale,
                            lda_iterations=bench_ctx.config.lda_iterations,
                            k=bench_ctx.config.k)
    registry.register(app.dataset, app.item_index, name="paris")
    return registry


@pytest.fixture(scope="module")
def service(registry):
    service = PackageService(registry, cache_capacity=512)
    # Resolve the shared demo groups once (same specs as the request
    # fixtures below) so build benchmarks time the serving path, not
    # synthetic group generation.
    for seed in range(12):
        registry.group_profile(
            "paris", GroupSpec(size=5, uniform=seed % 2 == 0, seed=seed)
        )
    return service


@pytest.fixture(scope="module")
def repeat_request():
    """The repeated (profile, query) pair of the cold/warm comparison."""
    return BuildRequest(city="paris", query=DEFAULT_QUERY,
                        group_spec=GroupSpec(size=5, uniform=True, seed=0))


@pytest.fixture(scope="module")
def batch_requests():
    return [
        BuildRequest(city="paris", query=DEFAULT_QUERY,
                     group_spec=GroupSpec(size=5, uniform=s % 2 == 0, seed=s))
        for s in range(12)
    ]


def test_service_build_cold(benchmark, service, repeat_request):
    def cold_build():
        service.cache.clear()
        response = service.build(repeat_request)
        assert response.ok and not response.cached

    benchmark(cold_build)


def test_service_build_warm(benchmark, service, repeat_request):
    service.build(repeat_request)  # prime the cache

    def warm_build():
        response = service.build(repeat_request)
        assert response.ok and response.cached

    benchmark(warm_build)


def test_service_build_batch(benchmark, service, batch_requests):
    def batched_cold():
        service.cache.clear()
        responses = service.build_batch(batch_requests)
        assert all(r.ok for r in responses)

    benchmark(batched_cold)


def test_warm_cache_speedup(service, repeat_request):
    """Acceptance gate: warm-cache build >= 5x faster than cold."""
    repeats = 5
    cold_total = 0.0
    for _ in range(repeats):
        service.cache.clear()
        start = time.perf_counter()
        assert service.build(repeat_request).ok
        cold_total += time.perf_counter() - start

    service.build(repeat_request)  # prime
    warm_total = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        response = service.build(repeat_request)
        warm_total += time.perf_counter() - start
        assert response.cached

    speedup = cold_total / warm_total
    print(f"\nwarm-cache speedup: {speedup:.0f}x "
          f"(cold {cold_total / repeats * 1000:.2f} ms, "
          f"warm {warm_total / repeats * 1000:.4f} ms)")
    telemetry.emit("service", telemetry.record(
        "warm_cache_speedup", speedup=speedup,
        cold_ms=cold_total / repeats * 1000,
        warm_ms=warm_total / repeats * 1000))
    assert speedup >= 5.0
