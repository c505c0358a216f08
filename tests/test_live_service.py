"""Live mutations through the serving tier (``repro.live`` + service).

The coherence contract under test: once a mutation has bumped a
city's epoch, **no subsequent request is served from pre-mutation
state**.  (Reads are epoch snapshots, not transactions: a request
racing the commit itself may observe the prior epoch once, as if it
had arrived a moment earlier -- see ``PackageService._ensure_fresh``.)
Cache
entries stop matching (the key carries the epoch), open sessions are
replayed onto the new epoch or fail with the structured
``stale_epoch`` code, byte accounting tracks patched array growth, and
an attached store appends each mutation to the city's journal.
"""

from __future__ import annotations

import copy
import gc
import json
import sys
import threading

import numpy as np
import pytest

from conftest import make_poi
from geo_oracle import nearest_pois
from repro.clustering.fuzzy_cmeans import FuzzyCMeans
from repro.core import kfc
from repro.core.arrays import CityArrays
from repro.core.kfc import KFCBuilder
from repro.core.objective import ObjectiveWeights
from repro.data.dataset import POIDataset
from repro.data.synthetic import generate_city
from repro.live import AddPoi, ClosePoi, MutationError, RepricePoi
from repro.profiles.vectors import ItemVectorIndex
from repro.service import (
    BuildRequest,
    CityRegistry,
    CustomizeRequest,
    GroupSpec,
    PackageService,
)
import repro.service.registry as registry_module
from repro.service.engine import StaleEpochError
from repro.service.loadgen import LoadgenConfig, build_workload, run_sync
from repro.service.shard import ShardCluster, ShardConfig
from repro.store import AssetStore


@pytest.fixture()
def registry(app):
    """A fresh registry per test: epochs and mutation logs must not
    leak between tests.  Registration reuses the session's pre-fitted
    Paris (no extra LDA fit), but copies the index: AddPoi extends it
    in place, and the session-scoped one must stay pristine."""
    registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
    registry.register(app.dataset, copy.deepcopy(app.item_index),
                      name="paris")
    return registry


@pytest.fixture()
def service(registry):
    return PackageService(registry, cache_capacity=32)


@pytest.fixture()
def spec_request():
    return BuildRequest(city="paris",
                        group_spec=GroupSpec(size=4, uniform=True, seed=5))


def _any_poi(registry):
    return next(iter(registry.dataset("paris")))


class TestEpochInvalidation:
    def test_mutation_invalidates_warm_cache(self, registry, service,
                                             spec_request):
        cold = service.build(spec_request)
        warm = service.build(spec_request)
        assert not cold.cached and warm.cached

        poi = _any_poi(registry)
        receipt = registry.mutate(
            "paris", RepricePoi(poi_id=poi.id, cost=poi.cost + 1.0))
        assert receipt["epoch"] == 1 and registry.epoch("paris") == 1

        # Structural miss: the cache key carries the epoch, so the
        # pre-mutation entry simply stops matching -- no purge ran.
        after = service.build(spec_request)
        assert not after.cached
        assert service.build(spec_request).cached  # new epoch re-warms

    def test_a_committed_mutation_purges_superseded_entries(
            self, registry, service, spec_request):
        """Entries keyed on an epoch a city left can never be hit again:
        the mutate wire op drops them at the commit (counted as purges,
        not evictions), so 20 reprice-and-rebuild rounds leave the
        city one entry, not 21."""
        assert not service.build(spec_request).cached
        poi = _any_poi(registry)
        for round_no in range(20):
            reply = service.dispatch("mutate", {"city": "paris", "mutation": {
                "kind": "reprice_poi", "poi_id": poi.id,
                "cost": poi.cost + round_no + 1.0}})
            assert reply["epoch"] == round_no + 1
            assert not service.build(spec_request).cached
        assert len(service.cache) == 1
        cache = service.stats()["cache"]
        assert (cache["purges"], cache["evictions"]) == (20, 0)

    def test_no_stale_reads_after_reprice(self, registry, service,
                                          spec_request):
        service.build(spec_request)
        poi = _any_poi(registry)
        registry.mutate("paris",
                        RepricePoi(poi_id=poi.id, cost=poi.cost + 0.5))
        current = registry.dataset("paris")
        assert current[poi.id].cost == pytest.approx(poi.cost + 0.5)

        after = service.build(spec_request)
        assert after.ok
        # Every served POI carries the *current* dataset's cost: the
        # response was derived from post-mutation state, nothing else.
        for ci in after.package.composite_items:
            for served in ci.pois:
                assert served.cost == current[served.id].cost


class TestSessionReplay:
    def _open_and_remove(self, service, spec_request):
        opened = service.open_session(spec_request)
        assert opened.ok
        victim = opened.package.composite_items[0].pois[-1].id
        removed = service.apply(CustomizeRequest(
            session_id=opened.session_id, op="remove", ci_index=0,
            poi_id=victim))
        assert removed.ok
        return opened.session_id, victim, removed

    def test_session_replays_over_a_compatible_mutation(self, registry,
                                                        service,
                                                        spec_request):
        session_id, victim, removed = self._open_and_remove(service,
                                                            spec_request)
        # Reprice to the *same* cost: the epoch bumps but the rebuilt
        # package is identical, so the logged REMOVE replays cleanly.
        poi = _any_poi(registry)
        registry.mutate("paris", RepricePoi(poi_id=poi.id, cost=poi.cost))

        second = removed.package.composite_items[0].pois[-1].id
        response = service.apply(CustomizeRequest(
            session_id=session_id, op="remove", ci_index=0,
            poi_id=second))
        assert response.ok
        pois = {p.id for p in response.package.composite_items[0].pois}
        assert victim not in pois and second not in pois
        live = service.stats()["live"]
        assert live["sessions_replayed"] == 1 and live["sessions_stale"] == 0

        # The session now rides the new epoch: no second replay.
        service.apply(CustomizeRequest(
            session_id=session_id, op="remove", ci_index=1,
            poi_id=response.package.composite_items[1].pois[-1].id))
        assert service.stats()["live"]["sessions_replayed"] == 1

    def test_unreplayable_session_gets_stale_epoch_code(self, registry,
                                                        service,
                                                        spec_request):
        session_id, victim, removed = self._open_and_remove(service,
                                                            spec_request)
        # Closing the removed POI makes the edit log unreplayable: the
        # epoch-1 rebuild cannot contain the victim, so the logged
        # REMOVE no longer applies.
        registry.mutate("paris", ClosePoi(poi_id=victim))

        second = removed.package.composite_items[0].pois[-1].id
        response = service.apply(CustomizeRequest(
            session_id=session_id, op="remove", ci_index=0,
            poi_id=second))
        assert not response.ok
        assert response.code == "stale_epoch"
        assert service.stats()["live"]["sessions_stale"] == 1

        # refine() on the same pinned session surfaces the same state.
        with pytest.raises(StaleEpochError):
            service.refine(session_id)

    def test_replace_reads_the_patched_bundle(self, registry, service,
                                              spec_request):
        opened = service.open_session(spec_request)
        sid = opened.session_id
        editor = service._session(sid).editor
        closed = editor.recommend_replacement(0, editor.package[0].pois[0].id)
        registry.mutate("paris", ClosePoi(poi_id=closed.id))

        # The next request replays the session onto the close's epoch;
        # no POI of the replayed package is offered the closed one.
        service.suggest_additions(sid, ci_index=0)
        editor = service._session(sid).editor
        current = registry.dataset("paris")
        assert editor.dataset is current and closed.id not in current
        for ci_index, ci in enumerate(editor.package.composite_items):
            for poi in ci.pois:
                recommended = editor.recommend_replacement(ci_index, poi.id)
                assert recommended.id != closed.id
                assert recommended == nearest_pois(
                    current, poi.lat, poi.lon, 1, category=poi.cat,
                    exclude=ci.poi_ids)[0]

        # A same-category POI added at a member's exact coordinates is
        # at distance 0 from it: the system REPLACE now picks it.
        target = editor.package[0].pois[0]
        twin = make_poi(max(current.ids) + 1, target.cat, lat=target.lat,
                        lon=target.lon, poi_type="pop-up",
                        tags=("never-seen-tag",))
        registry.mutate("paris", AddPoi(poi=twin))
        service.suggest_additions(sid, ci_index=0)
        editor = service._session(sid).editor
        ci_index = next(i for i, ci in enumerate(editor.package.composite_items)
                        if target.id in ci and twin.id not in ci)
        response = service.apply(CustomizeRequest(
            session_id=sid, op="replace", ci_index=ci_index,
            poi_id=target.id))
        assert response.ok
        replaced = response.package.composite_items[ci_index]
        assert twin.id in replaced and target.id not in replaced
        assert service.stats()["live"]["sessions_replayed"] == 2


class TestSeedCache:
    """FCM seeds follow the geometry: a reprice keeps the bundle's
    ``xy`` array and so its seeds; a close or an add derives a new
    ``xy`` and refits once for all the builds that follow."""

    @pytest.fixture()
    def fits(self, monkeypatch):
        """The cluster count of every ``FuzzyCMeans.fit`` call."""
        calls = []
        fit = FuzzyCMeans.fit

        def spy(model, points):
            calls.append(model.n_clusters)
            return fit(model, points)

        monkeypatch.setattr(FuzzyCMeans, "fit", spy)
        return calls

    def test_reprice_reuses_seeds_and_matches_a_fresh_registry(
            self, app, registry, service, spec_request, fits):
        service.build(spec_request)
        poi = _any_poi(registry)
        registry.mutate("paris",
                        RepricePoi(poi_id=poi.id, cost=poi.cost + 3.0))
        fits.clear()
        patched = service.build(spec_request)
        assert patched.ok and fits == []

        fresh = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
        fresh.register(registry.dataset("paris"),
                       copy.deepcopy(app.item_index), name="paris")
        rebuilt = PackageService(fresh, cache_capacity=4).build(spec_request)
        assert fits == [5]
        assert (json.dumps(patched.package.to_dict())
                == json.dumps(rebuilt.package.to_dict()))

    def test_close_and_add_refit_once(self, registry, service,
                                      spec_request, fits):
        other = BuildRequest(city="paris",
                             group_spec=GroupSpec(size=3, seed=6))
        service.build(spec_request)
        next_id = max(p.id for p in registry.dataset("paris")) + 1
        for mutation in (ClosePoi(poi_id=_any_poi(registry).id),
                         AddPoi(poi=make_poi(next_id, lat=48.86,
                                             lon=2.34, cost=2.0))):
            registry.mutate("paris", mutation)
            fits.clear()
            assert service.build(spec_request).ok
            assert service.build(other).ok
            assert fits == [5], mutation.kind

    def test_seed_map_keeps_a_bounded_lru(self, fits):
        """10,000 distinct seeds leave at most the bound's entries; a
        seed in steady use is never evicted, an old one refits."""
        pois = [make_poi(i, cat="rest", lat=48.85 + 0.001 * i,
                         lon=2.35 + 0.002 * (i % 3)) for i in range(6)]
        dataset = POIDataset(pois, city="tiny")
        builder = KFCBuilder(dataset, ItemVectorIndex.fit(
            dataset, lda_iterations=2, seed=1), k=1)
        hot = builder.place_centroids(seed=0)
        for seed in range(1, 10_001):
            builder.place_centroids(seed=seed)
            if seed % 50 == 0:
                builder.place_centroids(seed=0)
        assert len(builder._centroid_cache) <= kfc.SEED_CACHE_SIZE
        assert (1, 0) in builder._centroid_cache
        assert len(fits) == 10_001
        assert np.array_equal(builder.place_centroids(seed=0), hot)
        assert (1, 1) not in builder._centroid_cache
        builder.place_centroids(seed=1)
        assert len(fits) == 10_002

    def test_builders_share_seeds_by_geometry(self, app, fits):
        arrays = CityArrays.build(app.dataset, app.item_index)
        assert not arrays.xy.flags.writeable
        first, second = (KFCBuilder(app.dataset, app.item_index, seed=3,
                                    arrays=arrays) for _ in range(2))
        assert first._centroid_cache is second._centroid_cache
        assert np.array_equal(first.place_centroids(),
                              second.place_centroids())
        assert fits == [5]

        sharper = KFCBuilder(app.dataset, app.item_index, seed=3,
                             weights=ObjectiveWeights(fuzzifier=1.5),
                             arrays=arrays)
        assert sharper._centroid_cache is not first._centroid_cache
        sharper.place_centroids()
        assert fits == [5, 5]

        key = id(arrays.xy)
        assert key in kfc._SEEDS
        del first, second, sharper, arrays
        gc.collect()
        assert key not in kfc._SEEDS


    def test_concurrent_builders_share_one_seed_map(self, app):
        """Shard threads install builders over one bundle at once: each
        must get the same seed map and the same seeds."""
        arrays = CityArrays.build(app.dataset, app.item_index)
        builders, results = [], []

        def work():
            builder = KFCBuilder(app.dataset, app.item_index,
                                 arrays=arrays)
            builders.append(builder)
            results.append([builder.place_centroids(k=3, seed=s).tobytes()
                            for s in range(3)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8 and all(r == results[0] for r in results)
        caches = {id(b._centroid_cache) for b in builders}
        assert caches == {id(builders[0]._centroid_cache)}

class TestMutateWireOp:
    def test_mutate_dispatch_roundtrip(self, service):
        poi = _any_poi(service.registry)
        out = service.dispatch("mutate", {
            "city": "paris",
            "mutation": {"kind": "reprice_poi", "poi_id": poi.id,
                         "cost": round(poi.cost + 0.75, 4)},
            "request_id": "m-1",
        })
        assert out.get("error") is None
        assert out["epoch"] == 1 and out["seq"] == 1
        assert out["patch_ms"] >= 0.0 and "patched" not in out
        assert out["request_id"] == "m-1" and out["latency_ms"] > 0

        stats = service.stats()
        assert stats["live"]["mutations_applied"] == 1
        assert stats["registry"]["epochs"] == {"paris": 1}

    def test_mutate_error_responses(self, service):
        unknown_poi = service.dispatch("mutate", {
            "city": "paris",
            "mutation": {"kind": "reprice_poi", "poi_id": 10 ** 9,
                         "cost": 1.0},
        })
        assert unknown_poi["error"] and unknown_poi["code"] == "invalid"

        malformed = service.dispatch("mutate", {
            "city": "paris", "mutation": {"kind": "teleport_poi"},
        })
        assert malformed["error"] and malformed["code"] == "invalid"

        no_city = service.dispatch("mutate", {
            "mutation": {"kind": "reprice_poi", "poi_id": 1, "cost": 1.0},
        })
        assert no_city["error"] is not None
        assert service.stats()["live"]["mutations_applied"] == 0

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_add_poi_cost_is_invalid(self, service, literal):
        """A wire ``add_poi`` whose cost is a bare ``NaN``/``Infinity``
        literal (Python's json reads both) is refused like a bad
        reprice: an ``invalid`` error reply, and the epoch stays put."""
        registry = service.registry
        next_id = max(p.id for p in registry.dataset("paris")) + 1
        poi = dict(make_poi(next_id).to_dict(), cost="@COST@")
        line = json.dumps({"city": "paris",
                           "mutation": {"kind": "add_poi", "poi": poi}})
        payload = json.loads(line.replace('"@COST@"', literal))
        out = service.dispatch("mutate", payload)
        assert out["error"] and out["code"] == "invalid"
        assert "finite" in out["error"]
        assert registry.epoch("paris") == 0
        assert service.stats()["live"]["mutations_applied"] == 0

    def test_cluster_routes_mutate_and_merges_live_stats(self, app):
        registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
        registry.register(app.dataset, copy.deepcopy(app.item_index),
                          name="paris")
        cluster = ShardCluster(
            shards=2, config=ShardConfig(scale=0.4),
            cities=["paris", "barcelona"], use_processes=False,
            service_factory=lambda i: PackageService(registry,
                                                     cache_capacity=16,
                                                     shard=i))
        try:
            poi = next(iter(registry.dataset("paris")))
            out = cluster.dispatch("mutate", {
                "city": "paris",
                "mutation": {"kind": "reprice_poi", "poi_id": poi.id,
                             "cost": round(poi.cost + 0.5, 4)},
            })
            assert out.get("error") is None and out["epoch"] == 1
            merged = cluster.stats()
            assert merged["live"]["mutations_applied"] == 1
        finally:
            cluster.shutdown()


class TestByteAccounting:
    def test_install_reestimates_bytes_after_growth(self, registry):
        registry.entry("paris")
        before = registry.stats()["bytes_by_city"]["paris"]
        next_id = max(p.id for p in registry.dataset("paris")) + 1
        for i in range(5):
            registry.mutate("paris", AddPoi(poi=make_poi(
                next_id + i, lat=48.85 + 0.001 * i, lon=2.35 + 0.001 * i,
                cost=2.0 + i)))
        grown = registry.stats()["bytes_by_city"]["paris"]
        assert grown > before

        registry.mutate("paris", ClosePoi(poi_id=next_id))
        assert registry.stats()["bytes_by_city"]["paris"] < grown

    def test_mutation_log_journals_and_replays(self, registry):
        poi = _any_poi(registry)
        base = registry.dataset("paris")
        registry.mutate("paris",
                        RepricePoi(poi_id=poi.id, cost=poi.cost + 2.0))
        registry.mutate("paris", ClosePoi(poi_id=poi.id))
        log = registry.mutation_log("paris")
        assert [m.kind for m in log.entries] == ["reprice_poi", "close_poi"]
        replayed = log.replay(base)
        assert replayed.to_json() == registry.dataset("paris").to_json()


class TestEvictionReload:
    """A mutated city must survive LRU eviction: the reload replays
    the journal (or hydrates the mutated version from the store), so
    the persisted epoch is never stamped onto pre-mutation data."""

    FAST = dict(seed=11, scale=0.2, lda_iterations=8)

    @staticmethod
    def _mutate_twice(registry):
        base = registry.entry("paris").dataset
        poi = next(iter(base))
        added_id = max(p.id for p in base) + 1
        registry.mutate("paris",
                        RepricePoi(poi_id=poi.id, cost=poi.cost + 2.0))
        registry.mutate("paris", AddPoi(poi=make_poi(
            added_id, lat=48.86, lon=2.34, cost=3.0)))
        return poi, added_id, registry.dataset("paris").to_json()

    def test_reload_without_store_replays_the_journal(self):
        registry = CityRegistry(max_cities=1, **self.FAST)
        poi, added_id, expected = self._mutate_twice(registry)
        registry.entry("rome")  # max_cities=1: evicts mutated paris
        assert registry.loaded() == ("rome",)

        reloaded = registry.entry("paris")
        assert reloaded.epoch == 2 == registry.epoch("paris")
        assert reloaded.dataset.to_json() == expected
        assert reloaded.dataset[poi.id].cost == pytest.approx(poi.cost + 2.0)
        assert added_id in reloaded.dataset
        assert registry.stats()["counters"]["log_replays"] == 1

    def test_reload_with_store_reproduces_the_mutated_dataset(self,
                                                              tmp_path):
        registry = CityRegistry(store=AssetStore(tmp_path / "assets"),
                                max_cities=1, **self.FAST)
        poi, added_id, expected = self._mutate_twice(registry)
        registry.entry("rome")
        reloaded = registry.entry("paris")
        assert reloaded.epoch == 2
        assert reloaded.dataset.to_json() == expected

    def test_reregister_after_eviction_bumps_epoch(self, app):
        registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30,
                                max_cities=1)
        registry.register(app.dataset, copy.deepcopy(app.item_index),
                          name="paris")
        poi = next(iter(registry.dataset("paris")))
        registry.mutate("paris",
                        RepricePoi(poi_id=poi.id, cost=poi.cost + 1.0))
        assert registry.epoch("paris") == 1
        registry.register(app.dataset, copy.deepcopy(app.item_index),
                          name="other")  # evicts mutated paris
        assert registry.loaded() == ("other",)

        # The new base under the old name is a *different* dataset:
        # epoch-pinned state from the mutated epoch 1 must not match,
        # and the stale journal must not describe the new base.
        registry.register(app.dataset, copy.deepcopy(app.item_index),
                          name="paris")
        assert registry.epoch("paris") == 2
        assert registry.mutation_log("paris") is None
        assert registry.entry("paris").epoch == 2

    def _subset(self) -> POIDataset:
        """A dataset registered under a template name: Paris without
        its first five POIs."""
        paris = generate_city("paris", seed=self.FAST["seed"],
                              scale=self.FAST["scale"])
        return POIDataset(list(paris)[5:], city="paris")

    def test_evicted_registration_reloads_its_own_base(self, tmp_path):
        registry = CityRegistry(store=AssetStore(tmp_path / "assets"),
                                max_cities=1, **self.FAST)
        subset = self._subset()
        registry.register(subset)
        poi = next(iter(subset))
        registry.mutate("paris",
                        RepricePoi(poi_id=poi.id, cost=poi.cost + 2.0))
        expected = registry.dataset("paris").to_json()
        registry.entry("rome")  # max_cities=1: evicts registered paris

        reloaded = registry.entry("paris")
        assert reloaded.epoch == 1 == registry.epoch("paris")
        assert len(reloaded.dataset) == len(subset)
        assert reloaded.dataset.to_json() == expected
        # The reloaded entry keeps appending beside its own base.
        registry.mutate("paris", ClosePoi(poi_id=poi.id))
        registry.entry("rome")
        assert registry.entry("paris").dataset.to_json() == \
            ClosePoi(poi_id=poi.id).apply(reloaded.dataset).to_json()

    @pytest.mark.parametrize("with_store", [False, True])
    def test_evicted_registration_the_store_lacks_is_not_found(
            self, tmp_path, with_store):
        """No store, or a caller-supplied index (which bypasses it):
        the registration cannot reload, so the name answers
        ``not_found`` -- never the template of the same name."""
        registry = CityRegistry(
            store=AssetStore(tmp_path / "assets") if with_store else None,
            max_cities=1, **self.FAST)
        service = PackageService(registry)
        subset = self._subset()
        index = (ItemVectorIndex.fit(subset, lda_iterations=8, seed=11)
                 if with_store else None)
        registry.register(subset, index)
        registry.entry("rome")  # max_cities=1: evicts registered paris

        with pytest.raises(KeyError, match="re-register"):
            registry.entry("paris")
        response = service.build(BuildRequest(
            city="paris", group_spec=GroupSpec(size=3, seed=1)))
        assert response.code == "not_found"
        assert registry.epoch("paris") == 0
        registry.register(subset, index)
        assert len(registry.dataset("paris")) == len(subset)

    def test_unreplayable_journal_retires_the_epoch_on_reload(self):
        registry = CityRegistry(max_cities=1, **self.FAST)
        base = registry.entry("paris").dataset.to_json()
        poi = next(iter(registry.dataset("paris")))
        registry.mutate("paris",
                        RepricePoi(poi_id=poi.id, cost=poi.cost + 2.0))
        # A record that no longer applies to the base: replaying the
        # journal after eviction must fail cleanly, not crash the load.
        registry.mutation_log("paris").append(
            RepricePoi(poi_id=10 ** 9, cost=1.0))
        registry.entry("rome")  # max_cities=1: evicts mutated paris

        reloaded = registry.entry("paris")
        assert reloaded.epoch == 2 == registry.epoch("paris")
        assert registry.mutation_log("paris") is None
        assert reloaded.dataset.to_json() == base


def _store_bytes(root) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class TestStoreJournal:
    """A stored city is its base entry plus a journal of mutations."""

    FAST = TestEvictionReload.FAST

    def test_a_reprice_appends_a_journal_record(self, tmp_path):
        root = tmp_path / "assets"
        registry = CityRegistry(store=AssetStore(root), **self.FAST)
        poi = next(iter(registry.dataset("paris")))
        before = _store_bytes(root)
        receipt = registry.mutate(
            "paris", RepricePoi(poi_id=poi.id, cost=poi.cost + 0.5))
        assert "dataset_hash" not in receipt
        assert 0 < _store_bytes(root) - before <= 200
        (entry,) = root.iterdir()
        record = json.loads((entry / "journal.ndjson").read_text())
        assert record == {"seq": 1, "mutation": {
            "kind": "reprice_poi", "poi_id": poi.id, "cost": poi.cost + 0.5}}

    def test_closing_a_restaurant_reloads_without_a_corrupt_count(
            self, tmp_path):
        store = AssetStore(tmp_path / "assets")
        registry = CityRegistry(store=store, **self.FAST)
        rest = next(p for p in registry.dataset("paris")
                    if p.cat.value == "rest")
        registry.mutate("paris", ClosePoi(poi_id=rest.id))
        live = registry.entry("paris")
        registry._entries.pop("paris")  # force-evict
        reloaded = registry.entry("paris")
        assert store.stats()["corrupt"] == 0
        assert registry.stats()["counters"]["fits"] == 1
        assert reloaded.epoch == live.epoch == 1
        assert reloaded.dataset.to_json() == live.dataset.to_json()
        expected = live.arrays.export_arrays()
        for name, array in reloaded.arrays.export_arrays().items():
            assert array.tobytes() == expected[name].tobytes(), name

    def test_a_restart_restores_the_journal_and_its_epoch(self, tmp_path):
        root = tmp_path / "assets"
        registry = CityRegistry(store=AssetStore(root), **self.FAST)
        _, added_id, expected = TestEvictionReload._mutate_twice(
            registry)
        restarted = CityRegistry(store=AssetStore(root), **self.FAST)
        entry = restarted.entry("paris")
        assert entry.epoch == 2 == restarted.epoch("paris")
        assert len(restarted.mutation_log("paris")) == 2
        assert entry.dataset.to_json() == expected
        assert restarted.stats()["counters"]["fits"] == 0
        # The restored log keeps journaling where the old one stopped.
        receipt = restarted.mutate("paris", ClosePoi(poi_id=added_id))
        assert (receipt["epoch"], receipt["seq"]) == (3, 3)

    def test_a_torn_tail_is_truncated_to_the_valid_prefix(self, tmp_path):
        root = tmp_path / "assets"
        registry = CityRegistry(store=AssetStore(root), **self.FAST)
        _, _, expected = TestEvictionReload._mutate_twice(registry)
        (entry,) = root.iterdir()
        journal = entry / "journal.ndjson"
        intact = journal.read_bytes()
        journal.write_bytes(intact + b'{"seq": 3, "mutat')
        restarted = CityRegistry(store=AssetStore(root), **self.FAST)
        assert restarted.entry("paris").dataset.to_json() == expected
        poi = next(iter(restarted.dataset("paris")))
        restarted.mutate("paris", RepricePoi(poi_id=poi.id, cost=1.0))
        lines = journal.read_bytes().splitlines()
        assert journal.read_bytes().startswith(intact)
        assert [json.loads(line)["seq"] for line in lines] == [1, 2, 3]

    def test_re_registration_drops_the_stored_journal(self, app, tmp_path):
        root = tmp_path / "assets"
        registry = CityRegistry(store=AssetStore(root), seed=7, scale=0.4,
                                lda_iterations=30)
        dataset = copy.deepcopy(app.dataset)
        registry.register(dataset, name="paris")
        poi = next(iter(dataset))
        registry.mutate("paris", RepricePoi(poi_id=poi.id, cost=9.0))
        (entry,) = root.iterdir()
        assert (entry / "journal.ndjson").read_bytes()
        registry.register(dataset, name="paris")
        assert (entry / "journal.ndjson").read_bytes() == b""
        assert registry.dataset("paris").to_json() == dataset.to_json()


class TestFailedPatch:
    """A patch that raises leaves no trace: the epoch, the mutation
    log, the resident entry, the stored journal and the shared item
    index are as they were, and the wire answers with an error."""

    @staticmethod
    def _state(registry, root):
        log = registry.mutation_log("paris")
        (entry,) = root.iterdir()
        journal = entry / "journal.ndjson"
        return (registry.epoch("paris"),
                None if log is None else list(log.entries),
                registry.entry("paris"),
                journal.read_bytes() if journal.exists() else None)

    @pytest.mark.parametrize("kind", ["reprice_poi", "close_poi", "add_poi"])
    def test_a_failed_patch_leaves_no_trace(self, tmp_path, monkeypatch,
                                            kind):
        root = tmp_path / "assets"
        registry = CityRegistry(store=AssetStore(root),
                                **TestEvictionReload.FAST)
        service = PackageService(registry)
        poi = next(iter(registry.entry("paris").dataset))
        mutation = {
            "reprice_poi": {"kind": kind, "poi_id": poi.id, "cost": 9.0},
            "close_poi": {"kind": kind, "poi_id": poi.id},
            "add_poi": {"kind": kind, "poi": make_poi(10 ** 6).to_dict()},
        }[kind]

        def broken(*args):
            raise RuntimeError("patch failed")

        original = registry_module.patch_arrays
        for journaled in (False, True):
            if journaled:  # a journal and a log exist before the failure
                monkeypatch.setattr(registry_module, "patch_arrays",
                                    original)
                registry.mutate("paris", RepricePoi(poi_id=poi.id,
                                                    cost=poi.cost + 1.0))
            before = self._state(registry, root)
            monkeypatch.setattr(registry_module, "patch_arrays", broken)
            out = service.dispatch("mutate", {"city": "paris",
                                              "mutation": mutation})
            assert out["error"] and out["code"] == "failed"
            after = self._state(registry, root)
            assert after[:2] == before[:2]
            assert after[2] is before[2]
            assert after[3] == before[3]
            # A failed add embedded nothing into the shared index.
            assert 10 ** 6 not in registry.entry("paris").item_index
        assert before[0] == 1 and before[3]
        assert service.stats()["live"]["mutations_applied"] == 0


class TestLoadgenLive:
    def test_run_sync_mutate_mix_reports_epoch_churn(self, service):
        config = LoadgenConfig(cities=("paris",), actions=12, seed=3,
                               mix=(("warm", 0.5), ("mutate", 0.5)))
        workload = build_workload(config)
        assert any(action.kind == "mutate" for action in workload)

        report = run_sync(service.dispatch, workload)
        assert report.errors == 0 and report.failed_connections == 0
        assert report.mutations_sent > 0
        # Every applied mutation is one epoch bump, all caused (and
        # observed) by this run.
        assert report.epochs_seen["paris"] == report.mutations_sent
        assert report.epoch_bumps == report.mutations_sent
        assert "epoch bump(s) observed" in report.summary()
        assert service.stats()["live"]["mutations_applied"] \
            == report.mutations_sent

    def test_mutate_weight_requires_known_kind(self):
        with pytest.raises(ValueError, match="unknown traffic kinds"):
            LoadgenConfig(mix=(("mutte", 1.0),))
        config = LoadgenConfig(mix=(("mutate", 1.0),), actions=3)
        assert all(a.kind == "mutate" for a in build_workload(config))


def test_full_mutation_log_is_an_invalid_request(registry, service):
    """A journal at capacity refuses further mutations end to end."""
    registry.mutation_log_capacity = 2
    poi = _any_poi(registry)
    for _ in range(2):
        registry.mutate("paris",
                        RepricePoi(poi_id=poi.id, cost=poi.cost + 1.0))
    with pytest.raises(MutationError, match="full"):
        registry.mutate("paris",
                        RepricePoi(poi_id=poi.id, cost=poi.cost + 3.0))
    out = service.dispatch("mutate", {
        "city": "paris",
        "mutation": {"kind": "reprice_poi", "poi_id": poi.id, "cost": 9.0},
    })
    assert out["error"] and out["code"] == "invalid"
