"""The city lifecycle, tested against a model.

A Hypothesis ``RuleBasedStateMachine`` drives one ``CityRegistry`` and
its ``PackageService`` through register, reprice/close/add, forced
eviction, reload (with and without a store), restart (a new registry
over the same store), builds with repeated and fresh FCM seeds, and
customization sessions.

The model is the city's base dataset plus the journal of mutations
applied to it.  Every package the system serves must be byte-identical
to the package a fresh registry builds from ``replay(base, journal)``,
or the request must fail with ``stale_epoch``.  Two planted mutants
show the machine has teeth: an FCM seed cache keyed on the city name
(instead of the geometry it was fitted to) and a reload that forgets
the journal.
"""

from __future__ import annotations

import copy
import json
import shutil
import tempfile
import uuid
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import kfc
from repro.data.dataset import POIDataset
from repro.data.poi import POI, Category
from repro.live import AddPoi, ClosePoi, RepricePoi
from repro.service import (
    BuildRequest,
    CityRegistry,
    CustomizeRequest,
    GroupSpec,
    PackageService,
)
from repro.service.registry import CityEntry

CITY = "paris"
FAST = dict(seed=11, scale=0.1, lda_iterations=6)
K = 3
#: FCM seeds a build may repeat; fresh ones come from a counter.
REPEATED_SEEDS = (1, 2)
#: A close keeps at least this many POIs per category, so the default
#: query (one acco/trans/rest, three attr) stays feasible at k = 3.
MIN_PER_CATEGORY = 6


def stable_poi_id(seed: int, n: int) -> int:
    """The ``n``-th added POI's id: a seeded, stable uuid5 draw, far
    above every generated id."""
    name = f"grouptravel-lifecycle-{seed}-{n}"
    return 10 ** 6 + uuid.uuid5(uuid.NAMESPACE_OID, name).int % 10 ** 6


def package_json(package) -> str:
    return json.dumps(package.to_dict(), sort_keys=True)


def force_evict(registry: CityRegistry, city: str) -> None:
    """Drop a resident entry the way the LRU bound does."""
    with registry._lock:
        registry._entries.pop(city, None)
        registry._entry_bytes.pop(city, None)


class Lifecycle(RuleBasedStateMachine):
    #: A store holding the city's fitted base, copied per example so
    #: no example pays the LDA fit for a store-backed start.
    template: Path
    base: POIDataset
    base_index = None

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="lifecycle-"))
        shutil.copytree(self.template, self.root / "assets")
        self.store_root = self.root / "assets"
        self.journal: list = []
        # The journal beside the template base in the store, and whether
        # the resident entry appends to it: a registration appends beside
        # its own hash-keyed base, a registry without a store nowhere.
        self.template_journal: list = []
        self.added = 0
        self.fresh_seeds = 1000
        self.models: dict[int, PackageService] = {}
        self.model_names = 0
        self._start(with_store=True)

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    # -- the system ----------------------------------------------------------

    def _start(self, with_store: bool) -> None:
        self.with_store = self.on_template = with_store
        self.registry = CityRegistry(
            store=self.store_root if with_store else None, **FAST)
        self.service = PackageService(self.registry)
        self.sessions: dict[str, dict] = {}

    def dataset(self) -> POIDataset:
        dataset = self.base
        for mutation in self.journal:
            dataset = mutation.apply(dataset)
        return dataset

    # -- the model -----------------------------------------------------------

    def model(self) -> PackageService:
        """A fresh registry serving ``replay(base, journal)``.  Its
        dataset carries a never-reused city label, so no process-wide
        cache keyed on a name can leak between it and the system."""
        key = len(self.journal)  # cleared whenever the journal changes
        service = self.models.get(key)
        if service is None:
            index = copy.deepcopy(self.base_index)
            for mutation in self.journal:
                if isinstance(mutation, AddPoi):
                    index.extend_with(mutation.poi, seed=FAST["seed"])
            self.model_names += 1
            label = f"model-{self.model_names}"
            dataset = POIDataset(list(self.dataset()), city=label)
            registry = CityRegistry(**FAST)
            registry.register(dataset, index, name=CITY)
            service = self.models[key] = PackageService(registry)
        return service

    def _mutated(self, mutation) -> None:
        receipt = self.registry.mutate(CITY, mutation)
        self.journal.append(mutation)
        self.models.clear()
        if self.on_template:
            self.template_journal = list(self.journal)
        assert receipt["n_pois"] == len(self.dataset())

    # -- rules: mutations ----------------------------------------------------

    @rule(data=st.data(), cost=st.integers(0, 40))
    def reprice(self, data, cost):
        poi = data.draw(st.sampled_from(sorted(self.dataset(),
                                               key=lambda p: p.id)))
        self._mutated(RepricePoi(poi_id=poi.id, cost=cost / 4.0))

    @rule(data=st.data())
    def close(self, data):
        dataset = self.dataset()
        closable = [p for p in sorted(dataset, key=lambda p: p.id)
                    if len(dataset.by_category(p.cat)) > MIN_PER_CATEGORY]
        poi = data.draw(st.sampled_from(closable))
        self._mutated(ClosePoi(poi_id=poi.id))

    @rule(cat=st.sampled_from([Category.ACCOMMODATION, Category.RESTAURANT,
                               Category.ATTRACTION]),
          dx=st.floats(-0.03, 0.03), dy=st.floats(-0.03, 0.03),
          cost=st.integers(0, 40))
    def add(self, cat, dx, dy, cost):
        dataset = self.dataset()
        like = dataset.by_category(cat)[0]
        poi_id = stable_poi_id(FAST["seed"], self.added)
        self.added += 1
        if poi_id in dataset:
            return
        poi = POI(id=poi_id, name=f"added-{poi_id}", cat=cat,
                  lat=like.lat + dy, lon=like.lon + dx, type=like.type,
                  tags=like.tags, cost=cost / 4.0)
        self._mutated(AddPoi(poi=poi))

    @rule()
    def register(self):
        """Re-register the base bytes: the journal is compacted away."""
        self.registry.register(POIDataset(list(self.base),
                                          city=self.base.city))
        self.journal = []
        self.models.clear()
        self.on_template = False

    # -- rules: residency ----------------------------------------------------

    def _evict(self):
        force_evict(self.registry, CITY)
        # A template name reloads from the template base, whatever
        # registration it held before.
        self.on_template = self.with_store

    @rule()
    def evict(self):
        self._evict()

    @rule()
    def reload(self):
        self._evict()
        entry = self.registry.entry(CITY)
        assert entry.dataset.to_json() == self.dataset().to_json()

    @rule(with_store=st.booleans())
    def restart(self, with_store):
        self._start(with_store)
        # A fresh process over the store replays the template base's
        # journal; without a store it serves the base.
        self.journal = list(self.template_journal) if with_store else []
        self.models.clear()
        entry = self.registry.entry(CITY)
        assert entry.epoch == len(self.journal)

    # -- rules: serving ------------------------------------------------------

    def _request(self, group_seed: int, seed: int) -> BuildRequest:
        return BuildRequest(city=CITY, k=K, seed=seed,
                            group_spec=GroupSpec(size=3, seed=group_seed))

    def _check_build(self, request: BuildRequest) -> None:
        response = self.service.build(request)
        model = self.model().build(request)
        assert model.ok, model.error
        assert response.ok, response.error
        assert package_json(response.package) == package_json(model.package)
        served = self.registry.builder(CITY).place_centroids(K, request.seed)
        expected = self.model().registry.builder(CITY).place_centroids(
            K, request.seed)
        np.testing.assert_array_equal(served, expected)

    @rule(group_seed=st.integers(0, 3), seed=st.sampled_from(REPEATED_SEEDS))
    def build_repeated_seed(self, group_seed, seed):
        self._check_build(self._request(group_seed, seed))

    @rule(group_seed=st.integers(0, 3))
    def build_fresh_seed(self, group_seed):
        self.fresh_seeds += 1
        self._check_build(self._request(group_seed, self.fresh_seeds))

    @rule(group_seed=st.integers(0, 3), seed=st.sampled_from(REPEATED_SEEDS))
    def open_session(self, group_seed, seed):
        request = self._request(group_seed, seed)
        response = self.service.open_session(request)
        assert response.ok, response.error
        expected = self.model().build(request)
        assert package_json(response.package) == package_json(
            expected.package)
        self.sessions[response.session_id] = {
            "request": request, "edits": [], "package": response.package}

    @precondition(lambda self: self.sessions)
    @rule(data=st.data())
    def customize(self, data):
        sid = data.draw(st.sampled_from(sorted(self.sessions)))
        session = self.sessions[sid]
        ci = session["package"].composite_items[0]
        poi = data.draw(st.sampled_from([p.id for p in ci.pois]))
        edit = dict(op="replace", ci_index=0, poi_id=poi)
        response = self.service.apply(CustomizeRequest(session_id=sid,
                                                       **edit))
        if response.code == "stale_epoch":
            self.service.close_session(sid)
            del self.sessions[sid]
            return
        # The model opens the session afresh and repeats every edit; an
        # edit aimed at a package the replay no longer has must fail on
        # both sides alike.
        model = self.model()
        opened = model.open_session(session["request"])
        assert opened.ok, opened.error
        for step in session["edits"]:
            assert model.apply(CustomizeRequest(
                session_id=opened.session_id, **step)).ok
        expected = model.apply(CustomizeRequest(
            session_id=opened.session_id, **edit))
        model.close_session(opened.session_id)
        assert (response.ok, response.code) == (expected.ok, expected.code)
        if response.ok:
            session["edits"].append(edit)
            session["package"] = response.package
            assert package_json(response.package) == package_json(
                expected.package)

    @precondition(lambda self: self.sessions)
    @rule(data=st.data())
    def close_session(self, data):
        sid = data.draw(st.sampled_from(sorted(self.sessions)))
        self.service.close_session(sid)
        del self.sessions[sid]

    # -- invariants ----------------------------------------------------------

    @invariant()
    def resident_city_is_base_plus_journal(self):
        with self.registry._lock:
            entry = self.registry._entries.get(CITY)
        if entry is not None:
            assert entry.dataset.to_json() == self.dataset().to_json()


MACHINE_SETTINGS = settings(
    max_examples=12, stateful_step_count=14, deadline=None,
    derandomize=True, database=None,
    suppress_health_check=list(HealthCheck))


@pytest.fixture(scope="module")
def lifecycle(tmp_path_factory):
    """Point the machine at a store holding the fitted base."""
    root = tmp_path_factory.mktemp("lifecycle") / "assets"
    registry = CityRegistry(store=root, **FAST)
    entry: CityEntry = registry.entry(CITY)
    registry.register(POIDataset(list(entry.dataset), city=entry.dataset.city))
    Lifecycle.template = root
    Lifecycle.base = entry.dataset
    Lifecycle.base_index = copy.deepcopy(entry.item_index)
    return Lifecycle


def test_lifecycle_matches_base_plus_journal(lifecycle):
    run_state_machine_as_test(lifecycle, settings=MACHINE_SETTINGS)


def _seed_cache_keyed_on_city(monkeypatch):
    """Mutant: builders of one city share FCM seeds across geometries."""
    by_city: dict = {}
    init = kfc.KFCBuilder.__init__

    def keyed_on_city(self, dataset, item_index, *args, **kwargs):
        init(self, dataset, item_index, *args, **kwargs)
        self._centroid_cache = by_city.setdefault(
            (dataset.city, self.weights.fuzzifier), {})

    monkeypatch.setattr(kfc.KFCBuilder, "__init__", keyed_on_city)


def _reload_skips_the_journal(monkeypatch):
    """Mutant: an evicted city reloads as its base."""
    replay = CityRegistry._replay_log
    monkeypatch.setattr(
        CityRegistry, "_replay_log",
        lambda self, city, base, log, stored: replay(self, city, base, None,
                                                     stored))


@pytest.mark.parametrize("plant", [_seed_cache_keyed_on_city,
                                   _reload_skips_the_journal])
def test_the_machine_catches_a_planted_mutant(lifecycle, monkeypatch, plant):
    plant(monkeypatch)
    # No shrinking: a found failure is the whole point here.
    with pytest.raises(AssertionError):
        run_state_machine_as_test(lifecycle, settings=settings(
            MACHINE_SETTINGS, phases=[Phase.generate]))
