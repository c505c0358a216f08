"""Live-mutation benchmark: the incremental-recompute gate.

A live mutation (``repro.live``) must republish a city's
``CityArrays`` bundle without paying the full precompute.  For the
common case -- a single-POI reprice -- the patcher rewrites only the
affected cost columns and their sort orders, reusing every other array
by reference; the whole point of the subsystem is that this beats
``CityArrays.build`` by a wide margin while staying **byte-identical**
to it (the property the Hypothesis suite proves; this bench re-asserts
it on every timed sample).

Four gates, mirrored as pytest tests so ``pytest benchmarks/`` enforces
them:

* **Patch speedup** (``measure_patch_speedup``): median
  ``patch_arrays`` time for a reprice must beat a from-scratch
  ``CityArrays.build`` over the same mutated dataset by >=
  MIN_PATCH_SPEEDUP (5x).
* **Geometry patch speedup** (same measurement): close and add patches
  must each beat that rebuild by >= MIN_GEOMETRY_PATCH_SPEEDUP (3x).
  They rewrite the geometry-dependent state (projection, distance
  normalizer), so the floor is lower than a reprice's; the normalizer's
  O(n) update is what keeps them well clear of a rebuild.  Every
  fresh-build sample constructs a *new* ``POIDataset``:
  ``max_distance_km`` caches on the instance, and a warm cache would
  flatter the rebuild.
* **Zero stale reads** (``measure_zero_stale_reads``): against an
  in-process :class:`~repro.service.engine.PackageService`, interleave
  builds with mutations and assert every served package reflects the
  dataset of the epoch that served it -- POI costs always match the
  current registry dataset, warm cache hits never cross an epoch, and
  a deterministic loadgen burst with a ``mutate``-heavy mix finishes
  with zero error responses.
* **Reprice replay** (``measure_reprice_replay``): an open session
  without a budget crosses N reprices of its own POIs.  Each edit
  replays it by re-reading its base package, so the service's
  ``assemble`` stage count grows only by the open's own build, and the
  replay is >= MIN_REREAD_SPEEDUP (3x) faster than the forced-rebuild
  replay of ``tests/replay_oracle.py``, both timed at perfbench's
  reference speed (:mod:`perfbench.reference`) and compared by median.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import telemetry

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "tests"))
from perfbench import reference  # noqa: E402  (read-only: the slices)
from replay_oracle import RebuildingService  # noqa: E402
from repro.core.arrays import CityArrays
from repro.data.dataset import POIDataset
from repro.data.synthetic import generate_city
from repro.live import AddPoi, ClosePoi, RepricePoi, patch_arrays
from repro.profiles.vectors import ItemVectorIndex
from repro.service.engine import PackageService
from repro.service.loadgen import LoadgenConfig, build_workload, run_sync
from repro.service.registry import CityRegistry
from repro.service.schema import BuildRequest, GroupSpec

#: The incremental-recompute gate: patching a single-POI reprice must
#: beat a full CityArrays.build by at least this factor.
MIN_PATCH_SPEEDUP = 5.0

#: The same gate for the geometry-changing kinds, close and add.
MIN_GEOMETRY_PATCH_SPEEDUP = 3.0

#: A session replay across reprices (re-read) against the replay that
#: rebuilds the session's package (forced rebuild).
MIN_REREAD_SPEEDUP = 3.0


def _identical(a: CityArrays, b: CityArrays) -> bool:
    if a.export_meta() != b.export_meta():
        return False
    ea, eb = a.export_arrays(), b.export_arrays()
    return (set(ea) == set(eb)
            and all(ea[k].tobytes() == eb[k].tobytes() for k in ea))


def _fresh_dataset(dataset: POIDataset) -> POIDataset:
    """A value-equal dataset with *cold* caches (``max_distance_km``
    memoizes per instance; a timed build must pay it as a fresh
    registration would)."""
    return POIDataset(list(dataset), city=dataset.city)


def measure_patch_speedup(city: str = "paris", seed: int = 2019,
                          scale: float = 0.35, lda_iterations: int = 30,
                          repeats: int = 7) -> dict:
    """Time patch_arrays against CityArrays.build per mutation kind."""
    dataset = generate_city(city, seed=seed, scale=scale)
    index = ItemVectorIndex.fit(dataset, lda_iterations=lda_iterations,
                                seed=seed)
    arrays = CityArrays.build(dataset, index)
    pois = list(dataset)
    next_id = max(p.id for p in pois) + 1

    def mutations(i):
        base = pois[(i * 7) % len(pois)]
        added = AddPoi(poi=type(base)(
            id=next_id + i, name=f"pop-up-{i}", cat=base.cat,
            lat=base.lat + 1e-4, lon=base.lon + 1e-4, type=base.type,
            tags=base.tags, cost=base.cost + 1.0))
        return {"reprice": RepricePoi(poi_id=base.id,
                                      cost=round(base.cost * 1.1 + 0.01, 4)),
                "close": ClosePoi(poi_id=base.id),
                "add": added}

    samples = {kind: {"patch": [], "build": []}
               for kind in ("reprice", "close", "add")}
    for i in range(repeats):
        for kind, mutation in mutations(i).items():
            vector = (index.extend_with(mutation.poi, seed=seed)
                      if kind == "add" else None)
            mutated = mutation.apply(dataset)

            start = time.perf_counter()
            patched = patch_arrays(arrays, mutation, dataset, vector)
            samples[kind]["patch"].append(time.perf_counter() - start)

            cold = _fresh_dataset(mutated)
            start = time.perf_counter()
            rebuilt = CityArrays.build(cold, index)
            samples[kind]["build"].append(time.perf_counter() - start)

            assert _identical(patched, rebuilt), (
                f"{kind} patch diverged from a full rebuild")

    report = {"city": city, "n_pois": len(dataset), "repeats": repeats}
    for kind, times in samples.items():
        patch_ms = float(np.median(times["patch"]) * 1e3)
        build_ms = float(np.median(times["build"]) * 1e3)
        report[f"{kind}_patch_ms"] = patch_ms
        report[f"{kind}_build_ms"] = build_ms
        report[f"{kind}_speedup"] = build_ms / patch_ms
    return report


def _print_speedup(report: dict) -> None:
    print(f"incremental patch over {report['n_pois']} POIs "
          f"(median of {report['repeats']}, byte-identical throughout):")
    for kind in ("reprice", "close", "add"):
        gate = f"   (gate >= {_floor(kind):.0f}x)"
        print(f"  {kind:<8} patch {report[f'{kind}_patch_ms']:8.3f} ms   "
              f"rebuild {report[f'{kind}_build_ms']:8.3f} ms   "
              f"{report[f'{kind}_speedup']:6.1f}x{gate}")


def _floor(kind: str) -> float:
    return MIN_PATCH_SPEEDUP if kind == "reprice" else MIN_GEOMETRY_PATCH_SPEEDUP


def _slow_patches(report: dict) -> list[str]:
    """One line per mutation kind whose patch misses its speedup floor."""
    return [f"{kind} patch only {report[f'{kind}_speedup']:.1f}x a full "
            f"rebuild (gate {_floor(kind):.0f}x)"
            for kind in ("reprice", "close", "add")
            if report[f"{kind}_speedup"] < _floor(kind)]


def measure_zero_stale_reads(city: str = "paris", seed: int = 2019,
                             scale: float = 0.3, lda_iterations: int = 25,
                             rounds: int = 6) -> dict:
    """Interleave builds and mutations; count served POIs whose cost
    disagrees with the dataset of the serving epoch (must be zero)."""
    registry = CityRegistry(seed=seed, scale=scale,
                            lda_iterations=lda_iterations)
    service = PackageService(registry, cache_capacity=32)
    request = BuildRequest(city=city,
                           group_spec=GroupSpec(size=4, seed=5))

    stale_reads = checked = mutations = 0
    for round_no in range(rounds):
        response = service.build(request)
        assert response.ok, response.error
        current = registry.dataset(city)
        target = None
        for ci in response.package.composite_items:
            for poi in ci.pois:
                checked += 1
                if poi.cost != current[poi.id].cost:
                    stale_reads += 1
                target = poi
        # Reprice a POI that was just served, so the next round's build
        # is wrong unless the epoch bump invalidated the warm cache.
        receipt = registry.mutate(city, RepricePoi(
            poi_id=target.id, cost=round(target.cost + 0.5, 4)))
        mutations += 1
        assert receipt["epoch"] == round_no + 1

    config = LoadgenConfig(cities=(city,), actions=20, seed=7,
                           mix=(("cold", 0.3), ("warm", 0.3),
                                ("session", 0.2), ("mutate", 0.2)))
    burst = run_sync(service.dispatch, build_workload(config))

    live = service.stats()["live"]
    return {
        "city": city,
        "rounds": rounds,
        "checked_pois": checked,
        "stale_reads": stale_reads,
        "direct_mutations": mutations,
        "loadgen_actions": burst.sent,
        "loadgen_errors": burst.errors,
        "loadgen_mutations": burst.mutations_sent,
        "loadgen_epoch_bumps": burst.epoch_bumps,
        "stale_epoch_retries": burst.stale_epoch_retries,
        "mutations_applied": live["mutations_applied"],
        "sessions_replayed": live["sessions_replayed"],
    }


def _print_stale(report: dict) -> None:
    print(f"stale-read check over {report['rounds']} mutate/build rounds "
          f"+ {report['loadgen_actions']} loadgen actions:")
    print(f"  {report['checked_pois']} served POIs checked, "
          f"{report['stale_reads']} stale (gate: 0); "
          f"{report['loadgen_errors']} loadgen errors (gate: 0)")
    print(f"  {report['mutations_applied']} mutations applied, "
          f"{report['loadgen_epoch_bumps']} epoch bumps observed, "
          f"{report['sessions_replayed']} session(s) replayed, "
          f"{report['stale_epoch_retries']} stale-epoch retries")


def measure_reprice_replay(city: str = "paris", seed: int = 2019,
                           scale: float = 0.3, lda_iterations: int = 25,
                           reprices: int = 12) -> dict:
    """Replay an unbudgeted session across ``reprices`` reprices of its
    own POIs, on the service (re-read) and on the forced-rebuild oracle,
    over one shared registry."""
    registry = CityRegistry(seed=seed, scale=scale,
                            lda_iterations=lda_iterations)
    fast, oracle = PackageService(registry), RebuildingService(registry)
    spec = {"city": city, "group_spec": {"size": 4, "seed": 5}}
    opened = [svc.dispatch("open_session", dict(spec))
              for svc in (fast, oracle)]
    assert opened[0]["package"] == opened[1]["package"]
    sid, package = opened[0]["session_id"], opened[0]["package"]
    pois = [p for ci in package["composite_items"] for p in ci["pois"]]

    def assembled(service) -> int:
        stage = service.stats()["obs"]["stages"].get("assemble")
        return stage["count"] if stage else 0

    def reprice(i: int) -> None:
        poi = pois[i % len(pois)]
        registry.mutate(city, RepricePoi(poi_id=poi["id"],
                                         cost=round(poi["cost"] + i + 1, 3)))

    # Phase 1: a reprice, then an edit, N times; builds are counted.
    for i in range(reprices):
        reprice(i)
        ci = i % len(package["composite_items"])
        edit = {"session_id": sid, "op": "remove", "ci_index": ci,
                "poi_id": package["composite_items"][ci]["pois"][
                    i // len(package["composite_items"])]["id"]}
        replies = [svc.dispatch("customize", dict(edit))
                   for svc in (fast, oracle)]
        assert replies[0]["package"] == replies[1]["package"], (
            "re-read replay diverged from the forced rebuild")

    # Phase 2: the replay alone (a one-POI suggestion list rides it),
    # interleaved arms, each followed by its reference slices.
    times: dict[str, list[float]] = {"reread": [], "rebuild": []}
    refs: dict[str, list[float]] = {"reread": [], "rebuild": []}
    for i in range(reprices):
        reprice(reprices + i)
        arms = (("reread", fast), ("rebuild", oracle))
        for name, service in (arms if i % 2 == 0 else arms[::-1]):
            started = time.perf_counter()
            service.suggest_additions(sid, 0, k=1)
            ms = (time.perf_counter() - started) * 1000.0
            times[name].append(ms)
            refs[name].append(reference.sample_ms(ms))
    norm = {name: statistics.median(reference.normalized(times[name],
                                                         refs[name]))
            for name in times}
    return {
        "city": city,
        "reprices": reprices,
        "assemble_builds": assembled(fast),
        "oracle_assemble_builds": assembled(oracle),
        "sessions_replayed": fast.stats()["live"]["sessions_replayed"],
        "reread_norm_ms": norm["reread"],
        "rebuild_norm_ms": norm["rebuild"],
        "speedup": norm["rebuild"] / norm["reread"],
    }


def _print_replay(report: dict) -> None:
    print(f"session replay across {report['reprices']} reprices "
          f"(x2 phases): {report['assemble_builds']} build(s) on the "
          f"service (gate: 1, the open's own), "
          f"{report['oracle_assemble_builds']} on the forced-rebuild "
          f"oracle")
    print(f"  replay {report['reread_norm_ms']:.3f} ms re-read vs "
          f"{report['rebuild_norm_ms']:.3f} ms rebuilt at the reference "
          f"speed: {report['speedup']:.1f}x (gate >= "
          f"{MIN_REREAD_SPEEDUP:.0f}x)")


def _replay_failures(report: dict) -> list[str]:
    failures = []
    if report["assemble_builds"] != 1:
        failures.append(f"{report['assemble_builds']} builds across "
                        f"in-session reprices (gate: 1)")
    if report["speedup"] < MIN_REREAD_SPEEDUP:
        failures.append(f"re-read replay only {report['speedup']:.1f}x the "
                        f"forced rebuild (gate {MIN_REREAD_SPEEDUP:.0f}x)")
    return failures


# -- pytest gate --------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - standalone script mode
    pytest = None

if pytest is not None:

    def test_reprice_patch_speedup_gate():
        report = measure_patch_speedup(scale=0.25, lda_iterations=20,
                                       repeats=5)
        _print_speedup(report)
        telemetry.emit("live", telemetry.record("patch_speedup", **report))
        assert not _slow_patches(report), _slow_patches(report)

    def test_zero_stale_reads_gate():
        report = measure_zero_stale_reads(scale=0.25, lda_iterations=20,
                                          rounds=4)
        _print_stale(report)
        telemetry.emit("live", telemetry.record("zero_stale_reads",
                                                **report))
        assert report["stale_reads"] == 0
        assert report["loadgen_errors"] == 0
        # The wire-op counter sees the loadgen's mutations; the direct
        # registry.mutate calls bypass the service on purpose.
        assert report["loadgen_mutations"] > 0
        assert report["mutations_applied"] == report["loadgen_mutations"]
        assert (report["loadgen_epoch_bumps"]
                == report["direct_mutations"] + report["loadgen_mutations"])

    def test_reprice_replay_gate():
        report = measure_reprice_replay(scale=0.25, lda_iterations=20)
        _print_replay(report)
        telemetry.emit("live", telemetry.record("reprice_replay", **report))
        assert not _replay_failures(report), _replay_failures(report)


# -- standalone ---------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Incremental live-mutation recompute vs full rebuild "
                    "(gated).")
    parser.add_argument("--city", default="paris")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--scale", type=float, default=0.35)
    parser.add_argument("--lda-iterations", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)

    status = 0
    speedup = measure_patch_speedup(
        city=args.city, seed=args.seed, scale=args.scale,
        lda_iterations=args.lda_iterations, repeats=args.repeats,
    )
    _print_speedup(speedup)
    telemetry.emit("live", telemetry.record("patch_speedup", **speedup))
    for failure in _slow_patches(speedup):
        print(f"FAIL: {failure}", file=sys.stderr)
        status = 1

    stale = measure_zero_stale_reads(
        city=args.city, seed=args.seed, scale=min(args.scale, 0.3),
        lda_iterations=args.lda_iterations,
    )
    _print_stale(stale)
    telemetry.emit("live", telemetry.record("zero_stale_reads", **stale))
    if stale["stale_reads"] or stale["loadgen_errors"]:
        print(f"FAIL: {stale['stale_reads']} stale read(s), "
              f"{stale['loadgen_errors']} loadgen error(s)",
              file=sys.stderr)
        status = 1

    replay = measure_reprice_replay(
        city=args.city, seed=args.seed, scale=min(args.scale, 0.3),
        lda_iterations=args.lda_iterations,
    )
    _print_replay(replay)
    telemetry.emit("live", telemetry.record("reprice_replay", **replay))
    for failure in _replay_failures(replay):
        print(f"FAIL: {failure}", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
