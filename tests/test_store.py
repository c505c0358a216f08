"""Tests for the persistent city-asset store (``repro.store``).

The contract under test, in order of importance:

1. **Byte-identity.**  Assets that go through disk must serve the same
   bytes as freshly-fitted ones -- asserted against the golden package
   fixtures (captured from the pre-refactor seed implementation) on the
   *loaded* path, across three cities, three seeds and budgeted builds.
2. **Corruption safety.**  Truncation, bit flips, missing files,
   version skew and key mismatches all degrade to a miss (refit), never
   to an exception on the serving path.
3. **Concurrency.**  Many readers/writers on one store root, and many
   threads on one registry, produce exactly one fit's worth of work and
   no torn entries.
4. **Registry integration.**  ``CityRegistry(store=...)`` loads before
   fitting, writes back on a miss, counts provenance, and (with
   ``max_cities``) evicts LRU entries that a store hit brings back
   cheaply.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.kfc import KFCBuilder
from repro.core.query import DEFAULT_QUERY, GroupQuery
from repro.data.synthetic import generate_city
from repro.profiles.generator import GroupGenerator
from repro.profiles.vectors import ItemVectorIndex
from repro.service.registry import CityRegistry, populate_store
from repro.service.schema import BuildRequest, GroupSpec
from repro.store import (
    FORMAT_VERSION,
    AssetStore,
    CityAssets,
    Segment,
    dataset_content_hash,
    repair_store,
)
from repro.store.assets import _MANIFEST, _SEGMENT, StoreCorruption


def _region_offset(entry, prefix, min_bytes=16) -> int:
    """File offset of the first segment region under ``prefix`` big
    enough to corrupt meaningfully."""
    segment = Segment.open(entry / _SEGMENT, verify_pages=False)
    region = next(r for r in sorted(segment.regions.values(),
                                    key=lambda r: r.offset)
                  if r.name.startswith(prefix) and r.nbytes >= min_bytes)
    return region.offset


def _flip_byte(path, offset) -> None:
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_packages.json"

#: Small-city knobs shared by the fast tests (the golden tests use the
#: golden config instead).
FAST = dict(seed=5, scale=0.15, lda_iterations=5)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture()
def store(tmp_path):
    return AssetStore(tmp_path / "assets")


@pytest.fixture(scope="module")
def fast_fit():
    """One fitted (dataset, index, arrays) triple at the FAST scale,
    via a plain registry -- the reference the store tests compare to."""
    registry = CityRegistry(**FAST)
    entry = registry.entry("paris")
    return entry


def _package_bytes(package) -> list:
    return [
        ([p.id for p in ci.pois], tuple(float.hex(c) for c in ci.centroid))
        for ci in package.composite_items
    ]


class TestRoundTrip:
    def test_save_then_load_serves_identical_assets(self, store, fast_fit):
        store.save(CityAssets(fast_fit.dataset, fast_fit.item_index,
                              fast_fit.arrays), city="paris", **FAST)
        loaded = store.load("paris", **FAST)
        assert loaded is not None
        assert loaded.dataset.to_json() == fast_fit.dataset.to_json()
        assert loaded.item_index.schema == fast_fit.item_index.schema
        for poi in fast_fit.dataset:
            assert np.array_equal(loaded.item_index.vector(poi.id),
                                  fast_fit.item_index.vector(poi.id))
        assert loaded.arrays.origin == fast_fit.arrays.origin
        assert loaded.arrays.max_distance_km == fast_fit.arrays.max_distance_km
        assert np.array_equal(loaded.arrays.xy, fast_fit.arrays.xy)
        for cat, ca in fast_fit.arrays.categories.items():
            cb = loaded.arrays.categories[cat]
            for field in ("ids", "rows", "costs", "vectors", "vector_norms",
                          "cost_order"):
                assert np.array_equal(getattr(ca, field), getattr(cb, field))

    def test_loaded_assets_build_identical_packages(self, store, fast_fit):
        store.save(CityAssets(fast_fit.dataset, fast_fit.item_index,
                              fast_fit.arrays), city="paris", **FAST)
        loaded = store.load("paris", **FAST)
        profile = GroupGenerator(fast_fit.schema, seed=3).uniform_group(4).profile()
        fresh = fast_fit.builder.build(profile, DEFAULT_QUERY)
        hydrated = KFCBuilder(loaded.dataset, loaded.item_index,
                              seed=FAST["seed"],
                              arrays=loaded.arrays).build(profile,
                                                          DEFAULT_QUERY)
        assert _package_bytes(fresh) == _package_bytes(hydrated)

    def test_restored_topic_models_answer_identically(self, store, fast_fit):
        store.save(CityAssets(fast_fit.dataset, fast_fit.item_index,
                              fast_fit.arrays), city="paris", **FAST)
        loaded = store.load("paris", **FAST)
        for cat in ("rest", "attr"):
            fitted = fast_fit.item_index.topic_model(cat)
            restored = loaded.item_index.topic_model(cat)
            assert fitted.topic_labels() == restored.topic_labels()
            assert np.array_equal(fitted.document_topics(),
                                  restored.document_topics())
            assert np.array_equal(
                fitted.infer_theta(["museum", "garden"], seed=4),
                restored.infer_theta(["museum", "garden"], seed=4),
            )

    def test_contains_and_keys(self, store, fast_fit):
        assert not store.contains("paris", **FAST)
        store.save(CityAssets(fast_fit.dataset, fast_fit.item_index,
                              fast_fit.arrays), city="paris", **FAST)
        assert store.contains("paris", **FAST)
        assert len(store.keys()) == 1
        stats = store.stats()
        assert stats["entries"] == 1 and stats["writes"] == 1
        assert stats["disk_bytes"] > 0


class TestGoldenLoadedPath:
    """The acceptance bar: golden fixtures (pre-refactor bytes) must
    pass when every asset came off disk."""

    @pytest.fixture(scope="class")
    def golden_store(self, golden, tmp_path_factory):
        """One store holding every golden city's assets, fitted once."""
        cfg = golden["config"]
        store = AssetStore(tmp_path_factory.mktemp("golden-store"))
        for city in sorted({b["city"] for b in golden["builds"]}):
            dataset = generate_city(city, seed=cfg["city_seed"],
                                    scale=cfg["scale"])
            index = ItemVectorIndex.fit(dataset,
                                        lda_iterations=cfg["lda_iterations"],
                                        seed=cfg["app_seed"])
            fitted = KFCBuilder(dataset, index, k=5, seed=cfg["app_seed"])
            store.save(CityAssets(dataset, index, fitted.arrays),
                       city=city, seed=cfg["city_seed"], scale=cfg["scale"],
                       lda_iterations=cfg["lda_iterations"])
        return store

    def _hydrate(self, golden, store, city):
        cfg = golden["config"]
        loaded = store.load(city, seed=cfg["city_seed"], scale=cfg["scale"],
                            lda_iterations=cfg["lda_iterations"])
        assert loaded is not None
        builder = KFCBuilder(loaded.dataset, loaded.item_index, k=5,
                             seed=cfg["app_seed"], arrays=loaded.arrays)
        group = GroupGenerator(
            loaded.item_index.schema, seed=cfg["group_seed"]
        ).uniform_group(cfg["group_size"])
        return builder, group.profile(), loaded.item_index

    def _assert_golden(self, golden, build, system):
        builder, profile, item_index = system
        query = (DEFAULT_QUERY if build["budget"] is None else
                 GroupQuery.of(acco=1, trans=1, rest=1, attr=3,
                               budget=build["budget"]))
        pkg = builder.build(profile, query, seed=build["seed"])
        assert [[p.id for p in ci.pois] for ci in pkg.composite_items] \
            == [ci["poi_ids"] for ci in build["cis"]]
        assert [[float.hex(c) for c in ci.centroid]
                for ci in pkg.composite_items] \
            == [ci["centroid"] for ci in build["cis"]]
        assert {
            "representativity_km": float.hex(pkg.representativity()),
            "within_ci_km": float.hex(pkg.raw_cohesiveness_sum()),
            "personalization": float.hex(
                pkg.personalization(profile, item_index)),
        } == build["metrics"]

    def test_loaded_path_matches_golden(self, golden, golden_store):
        systems = {}
        for build in golden["builds"]:
            city = build["city"]
            if city not in systems:
                systems[city] = self._hydrate(golden, golden_store, city)
            self._assert_golden(golden, build, systems[city])

    def test_golden_survives_page_damage_and_repair(self, golden,
                                                    golden_store):
        """The ISSUE's repair acceptance bar: flip bytes in one arrays
        page, repair (dataset + index salvaged, arrays refitted), and
        the golden fixtures still pass -- because the repaired segment
        is *byte-identical* to the pristine one."""
        city = sorted({b["city"] for b in golden["builds"]})[0]
        cfg = golden["config"]
        entry = golden_store.path(golden_store.key(
            city, seed=cfg["city_seed"], scale=cfg["scale"],
            lda_iterations=cfg["lda_iterations"]))
        pristine = (entry / _SEGMENT).read_bytes()

        _flip_byte(entry / _SEGMENT, _region_offset(entry, "arrays/") + 11)
        assert golden_store.load(city, seed=cfg["city_seed"],
                                 scale=cfg["scale"],
                                 lda_iterations=cfg["lda_iterations"]) is None

        reports = {r.name: r for r in repair_store(golden_store)}
        report = reports[entry.name]
        assert report.status == "repaired"
        assert report.damaged_pages >= 1
        assert set(report.salvaged) == {"dataset", "index"}
        assert report.refitted == ("arrays",)
        assert all(r.status == "ok" for n, r in reports.items()
                   if n != entry.name)

        # Determinism makes the refit byte-exact, not just equivalent.
        assert (entry / _SEGMENT).read_bytes() == pristine
        system = self._hydrate(golden, golden_store, city)
        for build in golden["builds"]:
            if build["city"] == city:
                self._assert_golden(golden, build, system)


class TestCorruptionFallback:
    @pytest.fixture()
    def saved(self, store, fast_fit):
        path = store.save(CityAssets(fast_fit.dataset, fast_fit.item_index,
                                     fast_fit.arrays), city="paris", **FAST)
        return path

    def test_bit_flip_in_arrays_region_is_a_miss(self, store, saved):
        # A flipped byte inside an arrays/* data page fails exactly that
        # page's crc32 on the load path.
        _flip_byte(saved / _SEGMENT, _region_offset(saved, "arrays/") + 3)
        assert store.load("paris", **FAST) is None
        assert store.stats()["corrupt"] == 1

    def test_bit_flip_in_dataset_region_is_a_miss(self, store, saved):
        _flip_byte(saved / _SEGMENT, _region_offset(saved, "dataset") + 3)
        assert store.load("paris", **FAST) is None

    def test_truncated_segment_is_a_miss(self, store, saved):
        target = saved / _SEGMENT
        target.write_bytes(target.read_bytes()[: 100])
        assert store.load("paris", **FAST) is None

    def test_missing_payload_file_is_a_miss(self, store, saved):
        (saved / _SEGMENT).unlink()
        assert store.load("paris", **FAST) is None

    def test_unparseable_manifest_is_a_miss(self, store, saved):
        (saved / _MANIFEST).write_text("{not json")
        assert store.load("paris", **FAST) is None

    def test_digest_pass_but_malformed_payload_is_a_miss(self, store,
                                                         saved, fast_fit):
        # Rewrite the payload *and* its manifest record: the segment
        # layer (magic/structure checks) must still reject it.
        target = saved / _SEGMENT
        target.write_bytes(b"GTSG not really a segment")
        manifest = json.loads((saved / _MANIFEST).read_text())
        import hashlib
        manifest["files"][_SEGMENT] = {
            "sha256": hashlib.sha256(target.read_bytes()).hexdigest(),
            "nbytes": target.stat().st_size,
        }
        (saved / _MANIFEST).write_text(json.dumps(manifest))
        assert store.load("paris", **FAST) is None

    def test_cheap_contains_trusts_manifest_deep_contains_catches(
            self, store, saved):
        # The warmup pre-check is manifest-only (no payload bytes
        # read), so a data-page flip is invisible to it -- by design:
        # load() still catches it, and verify_digests=True is the
        # opt-in deep answer.
        _flip_byte(saved / _SEGMENT, _region_offset(saved, "arrays/") + 3)
        assert store.contains("paris", **FAST)
        assert not store.contains("paris", verify_digests=True, **FAST)
        assert store.load("paris", **FAST) is None

    def test_registry_refits_over_a_corrupt_entry(self, store, saved,
                                                  fast_fit):
        (saved / _SEGMENT).write_bytes(b"garbage")
        registry = CityRegistry(store=store, **FAST)
        entry = registry.entry("paris")  # falls back to a refit
        assert registry.stats()["counters"]["fits"] == 1
        assert registry.stats()["counters"]["store_misses"] == 1
        profile = GroupGenerator(entry.schema, seed=3).uniform_group(4).profile()
        assert _package_bytes(entry.builder.build(profile, DEFAULT_QUERY)) \
            == _package_bytes(fast_fit.builder.build(profile, DEFAULT_QUERY))
        # ... and the write-back *repaired* the entry on disk: the
        # garbage payload is gone and the entry loads again.
        assert (saved / _SEGMENT).read_bytes() != b"garbage"
        assert store.load("paris", **FAST) is not None


class TestVersionAndKeyMismatch:
    def test_format_version_skew_is_a_miss(self, store, fast_fit):
        saved = store.save(CityAssets(fast_fit.dataset, fast_fit.item_index,
                                      fast_fit.arrays), city="paris", **FAST)
        manifest = json.loads((saved / _MANIFEST).read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        (saved / _MANIFEST).write_text(json.dumps(manifest))
        assert store.load("paris", **FAST) is None

    def test_key_field_mismatch_is_a_miss(self, store, fast_fit):
        saved = store.save(CityAssets(fast_fit.dataset, fast_fit.item_index,
                                      fast_fit.arrays), city="paris", **FAST)
        manifest = json.loads((saved / _MANIFEST).read_text())
        manifest["key"]["lda_iterations"] = 999
        (saved / _MANIFEST).write_text(json.dumps(manifest))
        assert store.load("paris", **FAST) is None

    def test_different_config_never_sees_the_entry(self, store, fast_fit):
        store.save(CityAssets(fast_fit.dataset, fast_fit.item_index,
                              fast_fit.arrays), city="paris", **FAST)
        other = dict(FAST, lda_iterations=FAST["lda_iterations"] + 1)
        assert store.load("paris", **other) is None
        registry = CityRegistry(store=store, **other)
        registry.entry("paris")
        assert registry.stats()["counters"]["fits"] == 1  # keyed apart


class TestSlugCollision:
    """Regression: distinct keys whose cities sanitize to one slug must
    publish side by side, not evict each other (the pre-v2 dirname had
    no key hash, so \"são paulo\" and \"s_o paulo\" shared a directory
    and every save of one clobbered the other)."""

    CITIES = ("são paulo", "s_o paulo")

    def test_colliding_slugs_get_distinct_directories(self, store, fast_fit):
        assets = CityAssets(fast_fit.dataset, fast_fit.item_index,
                            fast_fit.arrays)
        paths = [store.save(assets, city=c, **FAST) for c in self.CITIES]
        # Same human-readable slug...
        slugs = {p.name.split("-seed")[0] for p in paths}
        assert slugs == {"s_o_paulo"}
        # ... but the key hash keeps the directories apart.
        assert len({p.name for p in paths}) == 2
        assert len(store.keys()) == 2

    def test_colliding_slugs_round_trip_independently(self, store, fast_fit):
        assets = CityAssets(fast_fit.dataset, fast_fit.item_index,
                            fast_fit.arrays)
        for city in self.CITIES:
            store.save(assets, city=city, **FAST)
        for city in self.CITIES:
            assert store.contains(city, **FAST)
            assert store.load(city, **FAST) is not None
        # A re-save of one is a race (equal content already published),
        # never a replacement of the *other* key's entry.
        store.save(assets, city=self.CITIES[0], **FAST)
        stats = store.stats()
        assert stats["writes"] == 2 and stats["write_races"] == 1
        assert store.load(self.CITIES[1], **FAST) is not None


class TestCrashMidPublish:
    """A writer SIGKILLed between payload write and rename must leave a
    clean miss plus temp litter that the store reaps (age-gated)."""

    def _tmp_dir(self, root, name, age_s):
        tmp = root / name
        tmp.mkdir(parents=True)
        (tmp / _SEGMENT).write_bytes(b"partial write, never published")
        old = time.time() - age_s
        os.utime(tmp, (old, old))
        return tmp

    def test_stale_tmp_reaped_on_init_fresh_kept(self, tmp_path):
        root = tmp_path / "assets"
        stale = self._tmp_dir(root, ".tmp-paris-crashed-deadbeef", 7200)
        fresh = self._tmp_dir(root, ".tmp-paris-inflight-cafe0001", 5)
        store = AssetStore(root)
        assert not stale.exists()          # crash litter: gone
        assert fresh.exists()              # live writer: untouched
        assert store.stats()["reaped_tmp"] == 1
        # The interrupted publish is an honest miss on the serving path.
        assert store.load("paris", **FAST) is None
        assert "paris" not in str(store.keys())

    def test_reap_is_age_gated_and_dry_runnable(self, tmp_path):
        root = tmp_path / "assets"
        root.mkdir()
        store = AssetStore(root)
        stale = self._tmp_dir(root, ".tmp-a", 7200)
        would = store.reap_tmp(dry_run=True)
        assert would == [stale.name] and stale.exists()
        assert store.reap_tmp(ttl_s=10 ** 9) == []     # too young for TTL
        assert store.reap_tmp() == [stale.name]
        assert not stale.exists()


class TestPrune:
    def _publish(self, store, fast_fit, cities):
        assets = CityAssets(fast_fit.dataset, fast_fit.item_index,
                            fast_fit.arrays)
        return {city: store.save(assets, city=city, **FAST)
                for city in cities}

    def test_prune_removes_stale_versions_and_litter(self, store, fast_fit):
        self._publish(store, fast_fit, ["paris"])
        stale = store.root / f"oldcity-seed1-scale0.5-lda5-deadbeef-v{FORMAT_VERSION - 1}"
        stale.mkdir()
        (stale / "payload.bin").write_bytes(b"x" * 4096)
        tmp = store.root / ".tmp-crashed"
        tmp.mkdir()
        old = time.time() - 7200
        os.utime(tmp, (old, old))

        report = store.prune(dry_run=True)
        assert report["stale_version"] == [stale.name]
        assert report["tmp"] == [tmp.name]
        assert report["dry_run"] and stale.exists() and tmp.exists()

        report = store.prune()
        assert report["freed_bytes"] >= 4096
        assert not stale.exists() and not tmp.exists()
        assert store.load("paris", **FAST) is not None   # current: kept
        assert store.stats()["pruned"] == 1

    def test_prune_evicts_lru_by_recency(self, store, fast_fit):
        paths = self._publish(store, fast_fit, ["paris", "rome", "oslo"])
        now = time.time()
        for age_s, city in ((3000, "rome"), (2000, "paris"), (0, "oslo")):
            os.utime(paths[city] / _SEGMENT, (now - age_s, now - age_s))

        report = store.prune(max_entries=1)
        assert report["lru"] == [paths["rome"].name, paths["paris"].name]
        assert report["kept"] == 1
        assert store.load("oslo", **FAST) is not None
        assert store.load("rome", **FAST) is None

    def test_prune_max_bytes(self, store, fast_fit):
        paths = self._publish(store, fast_fit, ["paris", "rome"])
        now = time.time()
        os.utime(paths["paris"] / _SEGMENT, (now - 500, now - 500))
        per_entry = sum(f.stat().st_size
                        for f in paths["rome"].glob("*"))
        report = store.prune(max_bytes=per_entry + 16)
        assert report["lru"] == [paths["paris"].name]   # oldest goes first
        assert report["kept_bytes"] <= per_entry + 16


class TestRegistryIntegration:
    def test_miss_fits_and_writes_back_hit_skips_the_fit(self, store):
        cold = CityRegistry(store=store, **FAST)
        entry = cold.entry("paris")
        counters = cold.stats()["counters"]
        assert counters == {"fits": 1, "store_hits": 0, "store_misses": 1,
                            "evictions": 0, "mutations": 0, "log_replays": 0}
        assert store.contains("paris", **FAST)

        warm = CityRegistry(store=store, **FAST)
        hydrated = warm.entry("paris")
        counters = warm.stats()["counters"]
        assert counters == {"fits": 0, "store_hits": 1, "store_misses": 0,
                            "evictions": 0, "mutations": 0, "log_replays": 0}
        profile = GroupGenerator(entry.schema, seed=9).uniform_group(5).profile()
        assert _package_bytes(entry.builder.build(profile, DEFAULT_QUERY)) \
            == _package_bytes(hydrated.builder.build(profile, DEFAULT_QUERY))

    def test_service_responses_identical_across_fit_and_hydrate(self, store):
        from repro.service.engine import PackageService

        request = BuildRequest(city="paris",
                               group_spec=GroupSpec(size=4, seed=13))
        cold = PackageService(CityRegistry(store=store, **FAST))
        warm = PackageService(CityRegistry(store=store, **FAST))
        a = cold.build(request)
        b = warm.build(request)
        assert a.ok and b.ok
        assert a.package.to_dict() == b.package.to_dict()
        assert warm.stats()["registry"]["counters"]["fits"] == 0

    def test_registered_datasets_bypass_the_store(self, store, fast_fit):
        registry = CityRegistry(store=store, **FAST)
        registry.register(fast_fit.dataset, fast_fit.item_index,
                          name="customcity")
        assert not store.keys()  # nothing persisted for registered data
        assert registry.stats()["counters"]["fits"] == 0

    def test_populate_store_pays_one_fit_per_missing_city(self, store):
        failed = populate_store(store, ["paris", "paris", "nosuchcity"],
                                **FAST)
        assert set(failed) == {"nosuchcity"}
        assert store.contains("paris", **FAST)
        # A second populate is all hits.
        assert populate_store(store, ["paris"], **FAST) == {}
        assert store.stats()["writes"] == 1


class TestBoundedResidency:
    def test_lru_eviction_and_bytes_accounting(self, store):
        registry = CityRegistry(store=store, max_cities=2, **FAST)
        registry.entry("paris")
        registry.entry("barcelona")
        stats = registry.stats()
        assert stats["cities"] == ["barcelona", "paris"]
        assert all(size > 0 for size in stats["bytes_by_city"].values())
        assert stats["total_bytes"] == sum(stats["bytes_by_city"].values())

        registry.entry("rome")  # evicts paris (LRU)
        stats = registry.stats()
        assert stats["cities"] == ["barcelona", "rome"]
        assert stats["counters"]["evictions"] == 1

        # A touch refreshes recency: barcelona survives the next insert.
        registry.entry("barcelona")
        registry.entry("london")
        assert "barcelona" in registry.stats()["cities"]

        # The evicted city comes back from disk, not from a refit.
        fits_before = registry.stats()["counters"]["fits"]
        registry.entry("paris")
        counters = registry.stats()["counters"]
        assert counters["fits"] == fits_before
        assert counters["store_hits"] >= 1

    def test_max_cities_validation(self):
        with pytest.raises(ValueError):
            CityRegistry(max_cities=0)


class TestConcurrentAccess:
    def test_one_registry_many_threads_one_fit(self, store):
        registry = CityRegistry(store=store, **FAST)
        with ThreadPoolExecutor(max_workers=8) as pool:
            entries = list(pool.map(lambda _: registry.entry("paris"),
                                    range(16)))
        assert all(e is entries[0] for e in entries)
        assert registry.stats()["counters"]["fits"] == 1

    def test_many_registries_share_one_store_root(self, store):
        def load(_):
            registry = CityRegistry(store=store, **FAST)
            return registry.entry("paris")

        with ThreadPoolExecutor(max_workers=6) as pool:
            entries = list(pool.map(load, range(6)))
        profile = GroupGenerator(entries[0].schema, seed=2).uniform_group(3).profile()
        packages = {
            json.dumps(_package_bytes(e.builder.build(profile, DEFAULT_QUERY)))
            for e in entries
        }
        assert len(packages) == 1  # every racer serves identical bytes
        assert store.contains("paris", **FAST)

    def test_concurrent_saves_leave_one_valid_entry(self, store, fast_fit):
        assets = CityAssets(fast_fit.dataset, fast_fit.item_index,
                            fast_fit.arrays)

        def save(_):
            return store.save(assets, city="paris", **FAST)

        with ThreadPoolExecutor(max_workers=8) as pool:
            paths = list(pool.map(save, range(16)))
        assert len({str(p) for p in paths}) == 1
        assert store.contains("paris", **FAST)
        assert len(store.keys()) == 1
        stats = store.stats()
        assert stats["writes"] + stats["write_races"] == 16
        # No temp-dir litter survives the stampede.
        leftovers = [p for p in Path(store.root).iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []


    def test_writer_that_found_no_entry_keeps_the_one_published_since(
            self, store, fast_fit, monkeypatch):
        """Writers A and B both find the entry missing; A publishes
        before B publishes.  B must leave A's entry in place (a reader
        may be reading it) and count a write race: it used to delete
        A's entry and publish its own."""
        assets = CityAssets(fast_fit.dataset, fast_fit.item_index,
                            fast_fit.arrays)
        final = store.path(store.key("paris", **FAST))
        check = store._manifest
        published = []

        def b_checks_then_a_publishes(entry, key):
            try:
                return check(entry, key)
            finally:
                if not published:
                    published.append(None)
                    store.save(assets, city="paris", **FAST)  # writer A
                    published[0] = (final / _SEGMENT).stat().st_ino

        monkeypatch.setattr(store, "_manifest", b_checks_then_a_publishes)
        store.save(assets, city="paris", **FAST)  # writer B
        monkeypatch.undo()
        assert (final / _SEGMENT).stat().st_ino == published[0]
        stats = store.stats()
        assert (stats["writes"], stats["write_races"]) == (1, 1)
        assert store.load("paris", **FAST) is not None
        assert store.tmp_dirs() == []

    def test_corrupt_entry_is_replaced(self, store, fast_fit):
        assets = CityAssets(fast_fit.dataset, fast_fit.item_index,
                            fast_fit.arrays)
        final = store.save(assets, city="paris", **FAST)
        (final / _SEGMENT).write_bytes(b"garbage")
        store.save(assets, city="paris", **FAST)
        assert store.stats()["writes"] == 2
        assert store.load("paris", **FAST) is not None
        assert store.tmp_dirs() == []

    def test_payload_file_vanishing_mid_check_is_corruption(
            self, store, fast_fit, monkeypatch):
        """A payload file removed between the presence check and the
        size check (a writer replacing the entry) is a corrupt entry,
        not a ``FileNotFoundError`` out of ``load``."""
        final = store.save(CityAssets(fast_fit.dataset, fast_fit.item_index,
                                      fast_fit.arrays),
                           city="paris", **FAST)
        (final / _SEGMENT).unlink()
        monkeypatch.setattr(Path, "is_file", lambda self: True)
        with pytest.raises(StoreCorruption, match="vanished"):
            store._manifest(final, None)
        assert store.load("paris", **FAST) is None


class TestShardConfigStore:
    def test_workers_hydrate_from_the_store(self, store):
        from repro.service.shard import ShardCluster, ShardConfig

        populate_store(store, ["paris", "barcelona"], **FAST)
        config = ShardConfig(store_path=str(store.root), **FAST)
        with ShardCluster(shards=2, config=config,
                          cities=["paris", "barcelona"],
                          use_processes=False) as cluster:
            warmed = cluster.warm()
            assert sorted(warmed["cities"]) == ["barcelona", "paris"]
            stats = cluster.stats()
            merged = stats["registry"]["counters"]
            assert merged["fits"] == 0
            assert merged["store_hits"] == 2
            assert stats["restarted"] == 0
            assert all("restarted" in shard for shard in stats["shards"])
            response = cluster.dispatch("build", {
                "city": "paris", "group_spec": {"size": 3, "seed": 1},
            })
            assert response.get("error") is None


class TestDatasetHashKeys:
    """Wire-registered (non-template) cities persist under a dataset
    content hash; hash-keyed entries are never "repaired" into
    template data."""

    def test_hash_changes_key_and_dirname(self, store, fast_fit):
        digest = dataset_content_hash(fast_fit.dataset)
        plain = store.key("paris", **FAST)
        hashed = store.key("paris", dataset_hash=digest, **FAST)
        assert plain.dataset_hash is None
        assert hashed.dataset_hash == digest
        assert plain.dirname() != hashed.dirname()
        assert f"-d{digest[:8]}-" in hashed.dirname()
        assert hashed.to_dict()["dataset_hash"] == digest

    def test_hash_keyed_save_and_load_round_trip(self, store, fast_fit):
        digest = dataset_content_hash(fast_fit.dataset)
        assets = CityAssets(fast_fit.dataset, fast_fit.item_index,
                            fast_fit.arrays)
        store.save(assets, city="wirecity", dataset_hash=digest, **FAST)
        # The plain key and a different hash are both misses.
        assert store.load("wirecity", **FAST) is None
        assert store.load("wirecity", dataset_hash="0" * 16, **FAST) is None
        loaded = store.load("wirecity", dataset_hash=digest, **FAST)
        assert loaded is not None
        assert dataset_content_hash(loaded.dataset) == digest

    def test_wire_registration_persists_across_restart(self, store,
                                                       fast_fit):
        cold = CityRegistry(store=store, **FAST)
        entry = cold.register(fast_fit.dataset, name="wirecity")
        assert cold.stats()["counters"]["fits"] == 1
        digest = dataset_content_hash(fast_fit.dataset)
        assert store.contains("wirecity", dataset_hash=digest, **FAST)

        warm = CityRegistry(store=store, **FAST)
        hydrated = warm.register(fast_fit.dataset, name="wirecity")
        counters = warm.stats()["counters"]
        assert counters["fits"] == 0 and counters["store_hits"] == 1
        profile = GroupGenerator(entry.schema,
                                 seed=9).uniform_group(5).profile()
        assert _package_bytes(entry.builder.build(profile, DEFAULT_QUERY)) \
            == _package_bytes(hydrated.builder.build(profile, DEFAULT_QUERY))

    def test_different_content_is_a_different_key(self, store, fast_fit):
        registry = CityRegistry(store=store, **FAST)
        registry.register(fast_fit.dataset, name="wirecity")
        other = generate_city("barcelona", seed=8, scale=0.15)
        registry.register(other, name="wirecity")
        assert registry.stats()["counters"]["fits"] == 2
        assert len(store.keys()) == 2  # one entry per content hash

    def test_caller_supplied_index_still_bypasses_the_store(self, store,
                                                            fast_fit):
        registry = CityRegistry(store=store, **FAST)
        registry.register(fast_fit.dataset, fast_fit.item_index,
                          name="wirecity")
        assert not store.keys()

    def test_damaged_dataset_in_hash_keyed_entry_is_unrecoverable(
            self, store, fast_fit):
        digest = dataset_content_hash(fast_fit.dataset)
        assets = CityAssets(fast_fit.dataset, fast_fit.item_index,
                            fast_fit.arrays)
        entry = store.save(assets, city="paris", dataset_hash=digest, **FAST)
        _flip_byte(entry / _SEGMENT, _region_offset(entry, "dataset") + 8)
        report = repair_store(store, [entry.name])[0]
        assert report.status == "unrecoverable"
        assert "content-hashed" in report.detail
        # The same damage on a template-keyed entry stays repairable.
        plain = store.save(assets, city="paris", **FAST)
        _flip_byte(plain / _SEGMENT, _region_offset(plain, "dataset") + 8)
        report = repair_store(store, [plain.name])[0]
        assert report.status == "repaired"
