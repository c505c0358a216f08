"""Asset-store warm-start benchmark: the pay-once/serve-forever gate.

A serving process's cold start is dominated by per-city fitting: city
generation, two collapsed-Gibbs LDA models, the ``CityArrays``
precompute.  The persistent :class:`~repro.store.AssetStore` replaces
all of it with a disk load on every process start after the first --
server restarts, shard-worker forks, autoscaled replicas.

``test_warm_start_speedup_gate`` (and the standalone
``python benchmarks/bench_store.py``) time

* **cold** -- a fresh :class:`~repro.service.registry.CityRegistry`
  materializing a city with no store (the LDA fit path), vs.
* **warm** -- a fresh registry hydrating the same city from a
  populated store (exactly what a restarted server or a forked shard
  worker pays, since workers hydrate through the identical
  ``CityRegistry(store=...)`` path),

report p50/p95 for both, verify the hydrated entry builds a
byte-identical package, and **gate** the ratio at >= MIN_SPEEDUP (10x).

A second gate covers the mmap'd binary segment format:

* **Page-cache sharing** (``measure_shared_residency``, Linux): N
  forked workers hydrate the same city and report the Pss of their
  ``segment.bin`` mapping from ``/proc/self/smaps``.  Pss divides
  shared pages across mappers, so if the workers truly share the page
  cache their combined Pss stays ~equal to a single worker's resident
  bytes; the gate is combined <= MAX_RESIDENCY_RATIO x single.
"""

import argparse
import multiprocessing
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import telemetry
from repro.core.query import DEFAULT_QUERY
from repro.profiles.generator import GroupGenerator
from repro.service.registry import CityRegistry
from repro.store import AssetStore

#: The warm-start gate: store hydration must beat the cold fit by at
#: least this factor.
MIN_SPEEDUP = 10.0

#: N workers' combined segment-mapping Pss vs one worker's.
MAX_RESIDENCY_RATIO = 1.5


def _time_registry_entry(city: str, repeats: int, **registry_kwargs) -> np.ndarray:
    """Wall-clock seconds for ``repeats`` from-scratch registry
    materializations of ``city`` (a fresh registry each time -- the
    process-start shape; nothing is pooled across iterations because
    every iteration generates fresh dataset/index objects)."""
    samples = []
    for _ in range(repeats):
        registry = CityRegistry(**registry_kwargs)
        start = time.perf_counter()
        registry.entry(city)
        samples.append(time.perf_counter() - start)
    return np.array(samples)


def _package_bytes(entry, profile):
    package = entry.builder.build(profile, DEFAULT_QUERY)
    return [
        ([p.id for p in ci.pois], tuple(float.hex(c) for c in ci.centroid))
        for ci in package.composite_items
    ]


def compare_warm_start(store_root: str | Path, city: str = "paris",
                       seed: int = 2019, scale: float = 0.35,
                       lda_iterations: int = 50, repeats: int = 3) -> dict:
    """Time cold-fit vs store-hydrated registry starts; return the report."""
    knobs = dict(seed=seed, scale=scale, lda_iterations=lda_iterations)
    store = AssetStore(store_root)

    # One fit populates the store (not timed as warm work).
    cold_registry = CityRegistry(store=store, **knobs)
    cold_entry = cold_registry.entry(city)
    assert store.contains(city, **knobs), "populate failed"

    t_cold = _time_registry_entry(city, repeats, **knobs)
    t_warm = _time_registry_entry(city, repeats, store=store, **knobs)

    # The hydrated entry must serve the fitted entry's exact bytes.
    warm_registry = CityRegistry(store=store, **knobs)
    warm_entry = warm_registry.entry(city)
    assert warm_registry.stats()["counters"]["fits"] == 0
    profile = GroupGenerator(cold_entry.schema, seed=5).uniform_group(5).profile()
    identical = (_package_bytes(cold_entry, profile)
                 == _package_bytes(warm_entry, profile))

    report = {
        "city": city,
        "n_pois": len(cold_entry.dataset),
        "identical": identical,
        "cold_p50_ms": float(np.percentile(t_cold, 50) * 1e3),
        "cold_p95_ms": float(np.percentile(t_cold, 95) * 1e3),
        "warm_p50_ms": float(np.percentile(t_warm, 50) * 1e3),
        "warm_p95_ms": float(np.percentile(t_warm, 95) * 1e3),
    }
    report["speedup"] = report["cold_p50_ms"] / report["warm_p50_ms"]
    return report


def _print_report(report: dict) -> None:
    print(f"warm start over {report['n_pois']} POIs "
          f"({'byte-identical' if report['identical'] else 'MISMATCH'}):")
    print(f"  cold fit       p50 {report['cold_p50_ms']:9.2f} ms   "
          f"p95 {report['cold_p95_ms']:9.2f} ms")
    print(f"  store hydrate  p50 {report['warm_p50_ms']:9.2f} ms   "
          f"p95 {report['warm_p95_ms']:9.2f} ms")
    print(f"  speedup {report['speedup']:.1f}x (gate >= {MIN_SPEEDUP:.0f}x)")


# -- page-cache sharing across forked workers ---------------------------------

def _pss_of_mapping(substr: str) -> int:
    """Combined Pss bytes of this process's mappings whose path
    contains ``substr`` (Linux ``/proc/self/smaps``).  Pss charges each
    shared page 1/N to each of its N mappers, so summing it across
    workers counts every physical page exactly once."""
    total_kb = 0
    active = False
    with open("/proc/self/smaps") as handle:
        for line in handle:
            head = line.split(None, 1)[0] if line.strip() else ""
            if "-" in head and not head.endswith(":"):  # mapping header
                active = substr in line
            elif active and line.startswith("Pss:"):
                total_kb += int(line.split()[1])
    return total_kb * 1024


def _residency_worker(root: str, city: str, knobs: dict, barrier,
                      results, index: int) -> None:
    store = AssetStore(root)
    assets = store.load(city, **knobs)
    assert assets is not None, "worker failed to hydrate"
    # Touch the hot arrays the serving path reads (load's page-checksum
    # pass already faulted the whole file through the shared cache).
    touched = float(np.sum(assets.arrays.xy))
    for ca in assets.arrays.categories.values():
        touched += float(np.sum(ca.vectors))
    barrier.wait()  # every worker holds its mapping before anyone measures
    results.put((index, _pss_of_mapping("segment.bin"), touched))
    barrier.wait()  # nobody unmaps until everyone has measured


def measure_shared_residency(store_root: str | Path, city: str = "paris",
                             workers: int = 4, *, seed: int = 2019,
                             scale: float = 0.35,
                             lda_iterations: int = 50) -> dict:
    """Pss of the segment mapping for 1 vs ``workers`` concurrent
    hydrators of one city (Linux only)."""
    knobs = dict(seed=seed, scale=scale, lda_iterations=lda_iterations)
    store = AssetStore(store_root)
    if not store.contains(city, **knobs):
        CityRegistry(store=store, **knobs).entry(city)

    ctx = multiprocessing.get_context("fork")

    def _run(n: int) -> list[int]:
        barrier = ctx.Barrier(n)
        results = ctx.Queue()
        procs = [ctx.Process(target=_residency_worker,
                             args=(str(store_root), city, knobs, barrier,
                                   results, i))
                 for i in range(n)]
        for proc in procs:
            proc.start()
        pss = [results.get(timeout=180)[1] for _ in range(n)]
        for proc in procs:
            proc.join(timeout=180)
        return pss

    single = _run(1)[0]
    combined = sum(_run(workers))
    return {
        "city": city,
        "workers": workers,
        "single_pss_bytes": single,
        "combined_pss_bytes": combined,
        "ratio": combined / single if single else float("inf"),
    }


def _print_residency(report: dict) -> None:
    print(f"segment-mapping residency ({report['city']}):")
    print(f"  1 worker            {report['single_pss_bytes']:>12,} B Pss")
    print(f"  {report['workers']} workers combined  "
          f"{report['combined_pss_bytes']:>12,} B Pss")
    print(f"  ratio {report['ratio']:.2f}x "
          f"(gate <= {MAX_RESIDENCY_RATIO:.1f}x)")


def _smaps_available() -> bool:
    return sys.platform == "linux" and Path("/proc/self/smaps").is_file()


# -- pytest gate --------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - standalone script mode
    pytest = None

if pytest is not None:

    def test_warm_start_speedup_gate(tmp_path):
        report = compare_warm_start(tmp_path / "assets", scale=0.25,
                                    lda_iterations=25, repeats=3)
        _print_report(report)
        telemetry.emit("store", telemetry.record("warm_start_speedup",
                                                 **report))
        assert report["identical"], "hydrated entry is not byte-identical"
        assert report["speedup"] >= MIN_SPEEDUP, (
            f"store hydration only {report['speedup']:.1f}x faster than a "
            f"cold fit (gate {MIN_SPEEDUP:.0f}x)"
        )

    @pytest.mark.skipif(not _smaps_available(),
                        reason="needs Linux /proc/self/smaps")
    def test_page_cache_sharing_gate(tmp_path):
        report = measure_shared_residency(tmp_path / "assets", workers=4,
                                          seed=2019, scale=0.25,
                                          lda_iterations=25)
        _print_residency(report)
        telemetry.emit("store", telemetry.record("page_cache_sharing",
                                                 **report))
        assert report["ratio"] <= MAX_RESIDENCY_RATIO, (
            f"4 workers resident {report['ratio']:.2f}x one worker's "
            f"bytes (gate {MAX_RESIDENCY_RATIO:.1f}x): the mapping is "
            f"not being shared"
        )


# -- standalone ---------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold LDA fit vs asset-store hydration (gated).")
    parser.add_argument("--city", default="paris")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--scale", type=float, default=0.35)
    parser.add_argument("--lda-iterations", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--store", default=None,
                        help="store directory (default: a temp dir)")
    args = parser.parse_args(argv)

    root = args.store or tempfile.mkdtemp(prefix="bench-store-")
    status = 0
    try:
        report = compare_warm_start(
            root, city=args.city, seed=args.seed, scale=args.scale,
            lda_iterations=args.lda_iterations, repeats=args.repeats,
        )
        _print_report(report)
        telemetry.emit("store", telemetry.record("warm_start_speedup_cli",
                                                 scale=args.scale, **report))
        if not report["identical"]:
            print("FAIL: hydrated entry is not byte-identical",
                  file=sys.stderr)
            status = 1
        if report["speedup"] < MIN_SPEEDUP:
            print(f"FAIL: speedup {report['speedup']:.1f}x below the "
                  f"{MIN_SPEEDUP:.0f}x gate", file=sys.stderr)
            status = 1

        if _smaps_available():
            residency = measure_shared_residency(
                Path(root) / "residency", city=args.city, workers=4,
                seed=args.seed, scale=args.scale,
                lda_iterations=args.lda_iterations,
            )
            _print_residency(residency)
            telemetry.emit("store", telemetry.record("page_cache_sharing",
                                                     **residency))
            if residency["ratio"] > MAX_RESIDENCY_RATIO:
                print(f"FAIL: combined worker residency "
                      f"{residency['ratio']:.2f}x one worker's (gate "
                      f"{MAX_RESIDENCY_RATIO:.1f}x)", file=sys.stderr)
                status = 1
        else:
            print("segment-mapping residency: skipped "
                  "(needs Linux /proc/self/smaps)")
    finally:
        if args.store is None:
            shutil.rmtree(root, ignore_errors=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
