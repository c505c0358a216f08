"""Per-city resource pooling.

The expensive artifacts behind every request are per-city and
profile-independent: the POI dataset, the fitted
:class:`~repro.profiles.vectors.ItemVectorIndex` (two LDA models), the
:class:`~repro.core.arrays.CityArrays` compute bundle (contiguous
coordinate/cost/item-vector arrays every build scores against) and the
:class:`~repro.core.kfc.KFCBuilder` (whose FCM centroid seeds outlive
it while its bundle's ``xy`` lives).  :class:`CityRegistry` builds each of
them exactly once per city -- lazily on first request, under a per-city
lock so concurrent cold requests for one city do not fit LDA twice --
and shares them across every request the service ever serves for that
city.  Registration is where the array precompute is paid, so the
request path touches only ready-made structures.

Cities come from two places: any of the eight synthetic templates
(:mod:`repro.data.cities`) generated on demand, or datasets registered
explicitly (e.g. loaded from JSON dumps of real data).

Two optional knobs bound the cost of that materialization:

* ``store`` -- a persistent :class:`~repro.store.AssetStore`.  Template
  cities are **loaded from disk before fitting** (and written back on a
  miss, still under the per-city lock), so a restarted server or a
  freshly-forked shard worker hydrates in milliseconds instead of
  paying LDA again.  Explicitly registered datasets persist too: their
  content is client-controlled, so their store key carries a **dataset
  content hash** (:func:`~repro.store.dataset_content_hash`) instead of
  relying on the generation parameters -- re-registering the same bytes
  after a restart hydrates the fitted index from disk, and an evicted
  registration reloads from its own base, never from the template of
  the same name.  Live mutations are appended to the entry's journal,
  which a fresh process replays (see :meth:`CityRegistry.mutate`).
* ``max_cities`` -- LRU residency bound.  Cities registered over the
  wire are client-controlled server state; beyond the bound the
  least-recently-used entry is evicted (cheap to bring back when a
  store is attached).  ``stats()`` reports per-entry byte estimates so
  operators can size the bound.

Cities are immutable *per epoch*, not forever: :meth:`CityRegistry.
mutate` applies a :mod:`repro.live` mutation (close / reprice / add
POI) by incrementally patching the ``CityArrays`` bundle, journaling
the record in a per-city :class:`~repro.live.mutations.MutationLog`,
bumping the city's epoch and publishing a new entry -- downstream
caches and sessions key on the epoch to stay coherent.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from threading import Lock

from repro.core.arrays import CityArrays
from repro.core.kfc import KFCBuilder
from repro.core.objective import ObjectiveWeights
from repro.data.cities import city_names, get_template
from repro.data.dataset import POIDataset
from repro.data.synthetic import generate_city
from repro.live.mutations import AddPoi, Mutation, MutationError, MutationLog
from repro.live.patch import patch_arrays
from repro.obs import stage
from repro.profiles.consensus import ConsensusMethod
from repro.profiles.generator import GroupGenerator
from repro.profiles.group import GroupProfile
from repro.profiles.schema import ProfileSchema
from repro.profiles.vectors import ItemVectorIndex
from repro.service.schema import GroupSpec
from repro.store import AssetStore, CityAssets, dataset_content_hash


@dataclass(frozen=True)
class CityEntry:
    """The pooled per-city serving assets.

    ``epoch`` is the city's live-mutation version: 0 for a freshly
    loaded city, bumped by every :meth:`CityRegistry.mutate`.  Package
    cache keys and customization sessions carry it, so state derived
    from an older dataset can never be served against a newer one.

    ``layout_epoch`` is the oldest epoch whose entry had this one's
    rows: every epoch bump after it was a reprice
    (:attr:`~repro.live.mutations.Mutation.prices_only`), so the POI
    ids, their row order, coordinates and item vectors are unchanged
    since, and only costs differ.  A registration, a reload that
    retires its journal, a close or an add resets it to ``epoch``.
    """

    name: str
    dataset: POIDataset
    item_index: ItemVectorIndex
    arrays: CityArrays
    builder: KFCBuilder
    epoch: int = 0
    layout_epoch: int = 0
    #: The stored base the journal extends (``None``: not in the
    #: store) and its key's dataset hash (``None`` for templates).
    base: CityAssets | None = None
    base_hash: str | None = None

    @property
    def schema(self) -> ProfileSchema:
        """The profile coordinate system requests must match."""
        return self.item_index.schema

    def estimated_bytes(self) -> int:
        """Rough resident size: the two big array holders plus a
        per-POI allowance for the dataset's Python objects."""
        return (self.arrays.nbytes + self.item_index.nbytes()
                + len(self.dataset) * 512)


class CityRegistry:
    """Lazily-loaded, shared per-city serving assets.

    Args:
        seed: Master seed for city generation, LDA and FCM.
        scale: City-size multiplier for generated cities.
        lda_iterations: Gibbs sweeps when fitting item vectors.
        k: Default Composite Items per package.
        weights: Default Equation 1 weights for the builders.
        candidate_pool: Assembly candidate cap per category.
        store: Optional persistent asset store (or its root path);
            template cities load from it before fitting and write back
            on a miss.
        max_cities: Optional LRU bound on resident city entries.
    """

    def __init__(self, seed: int = 2019, scale: float = 1.0,
                 lda_iterations: int = 120, k: int = 5,
                 weights: ObjectiveWeights = ObjectiveWeights(),
                 candidate_pool: int = 60,
                 store: AssetStore | str | Path | None = None,
                 max_cities: int | None = None,
                 mutation_log_capacity: int = 1024) -> None:
        if max_cities is not None and max_cities < 1:
            raise ValueError("max_cities must be at least 1")
        self.seed = seed
        self.scale = scale
        self.lda_iterations = lda_iterations
        self.k = k
        self.weights = weights
        self.candidate_pool = candidate_pool
        self.store = (AssetStore(store) if isinstance(store, (str, Path))
                      else store)
        self.max_cities = max_cities
        self.mutation_log_capacity = mutation_log_capacity
        self._entries: OrderedDict[str, CityEntry] = OrderedDict()
        self._entry_bytes: dict[str, int] = {}
        self._profiles: OrderedDict[tuple, GroupProfile] = OrderedDict()
        self._lock = Lock()
        self._city_locks: dict[str, Lock] = {}
        # Epochs and mutation logs outlive entries on purpose: an
        # evicted-then-reloaded city keeps its version, and the reload
        # replays the journal so the entry served under that version is
        # the dataset the version promises (see _replay_log).  Names
        # ever installed are remembered too, so re-registering an
        # evicted city still invalidates epoch-keyed state, and so is
        # each registered name's stored base hash (None: the base is
        # not in the store), so a reload never serves a template.
        self._epochs: dict[str, int] = {}
        self._mutation_logs: dict[str, MutationLog] = {}
        self._ever_installed: set[str] = set()
        self._registered: dict[str, str | None] = {}
        self._counters = {"fits": 0, "store_hits": 0, "store_misses": 0,
                          "evictions": 0, "mutations": 0, "log_replays": 0}

    #: Bound on cached spec resolutions; unlike city entries (at most
    #: eight templates) distinct specs are client-controlled, so the
    #: cache must not grow with traffic.
    _MAX_PROFILES = 1024

    # -- loading -----------------------------------------------------------

    def _lock_for(self, city: str) -> Lock:
        with self._lock:
            lock = self._city_locks.get(city)
            if lock is None:
                lock = self._city_locks[city] = Lock()
            return lock

    def _discard_lock(self, city: str) -> None:
        """Drop a per-city lock slot after a failed load.

        City names are client-controlled, so a lock entry must never
        outlive a failed ``entry``/``register`` call: otherwise every
        bad city name in traffic leaks one Lock forever.  A concurrent
        loader that still holds the discarded Lock object at worst
        refits the city once more; it cannot corrupt ``_entries``.
        """
        with self._lock:
            if city not in self._entries:
                self._city_locks.pop(city, None)

    def _count(self, name: str) -> None:
        with self._lock:
            self._counters[name] += 1

    def _install(self, city: str, entry: CityEntry) -> None:
        """Publish an entry and enforce the residency bound (both under
        the registry lock; eviction never touches the just-installed
        city)."""
        with self._lock:
            self._entries[city] = entry
            self._entries.move_to_end(city)
            self._ever_installed.add(city)
            self._entry_bytes[city] = entry.estimated_bytes()
            while (self.max_cities is not None
                   and len(self._entries) > self.max_cities):
                victim, _ = self._entries.popitem(last=False)
                self._entry_bytes.pop(victim, None)
                # The victim's lock slot would otherwise leak; a loader
                # racing this eviction at worst refits once (same
                # guarantee as _discard_lock).
                self._city_locks.pop(victim, None)
                self._counters["evictions"] += 1

    def register(self, dataset: POIDataset,
                 item_index: ItemVectorIndex | None = None,
                 name: str | None = None) -> CityEntry:
        """Install a pre-built dataset (and optionally its item index)
        under ``name`` (default: the dataset's own city name).

        Registering replaces any previously-loaded entry of that name;
        benchmarks use this to serve cities a test harness already
        built.  A failed registration (e.g. LDA cannot fit an empty
        dataset) leaves no trace: the name stays unregistered and can
        be retried or registered with a valid dataset later.

        With a store attached (and no caller-supplied index), the fit
        is keyed on a **content hash** of the dataset, so bytes fitted
        by a previous process life hydrate from disk.  The registered
        dataset is a new base: the entry's journal is dropped.  After
        eviction the name reloads from that stored base; a registration
        the store does not hold cannot reload and must be repeated.
        """
        city = (name or dataset.city).lower()
        if not city:
            raise ValueError("a registered dataset needs a city name")
        try:
            with self._lock_for(city):
                with self._lock:
                    if (city in self._ever_installed
                            or city in self._epochs
                            or city in self._mutation_logs):
                        # Re-registration replaces the serving dataset:
                        # the new base compacts any mutation history and
                        # must invalidate epoch-keyed caches/sessions.
                        # Residency is not the test -- an *evicted* city
                        # may still have sessions and cache entries
                        # pinned to its old epochs, and a mutation log
                        # that does not describe the new base.
                        self._epochs[city] = self._epochs.get(city, 0) + 1
                        self._mutation_logs.pop(city, None)
                base = dataset_hash = None
                if (item_index is None and self.store is not None
                        and len(dataset) > 0):
                    dataset_hash = dataset_content_hash(dataset)
                    base = self._store_load(city, dataset_hash)
                if base is None:
                    base = self._fit(city, dataset, item_index)
                stored = dataset_hash is not None and self._store_save(
                    city, replace(base, journal=()), dataset_hash)
                entry = self._assemble_entry(
                    city, base.dataset, base.item_index, base.arrays,
                    base if stored else None, dataset_hash)
                with self._lock:
                    self._registered[city] = dataset_hash if stored else None
                self._install(city, entry)
                return entry
        except BaseException:
            self._discard_lock(city)
            raise

    def _fit(self, city: str, dataset: POIDataset,
             item_index: ItemVectorIndex | None = None) -> CityAssets:
        if len(dataset) == 0:
            # Catch this at load time: an empty dataset "fits" a
            # degenerate LDA and then NaN-poisons every centroid the
            # builder seeds, failing requests far from the cause.
            raise ValueError(f"cannot serve city {city!r}: dataset is empty")
        if item_index is None:
            with stage("lda_fit", city=city):
                item_index = ItemVectorIndex.fit(
                    dataset, lda_iterations=self.lda_iterations, seed=self.seed
                )
            self._count("fits")
        # Registration-time precompute: every build for this city scores
        # against these arrays instead of the POI objects.  ``of`` (not
        # ``build``) so a pair already materialized elsewhere in the
        # process (e.g. a harness-owned GroupTravel) is shared, not
        # duplicated.
        with stage("arrays_build", city=city):
            arrays = CityArrays.of(dataset, item_index)
        return CityAssets(dataset=dataset, item_index=item_index,
                          arrays=arrays)

    def _assemble_entry(self, city: str, dataset: POIDataset,
                        item_index: ItemVectorIndex, arrays: CityArrays,
                        base: CityAssets | None = None,
                        base_hash: str | None = None,
                        repriced: int = 0) -> CityEntry:
        """The entry for the city's current epoch; its layout epoch is
        ``repriced`` epochs back (the trailing run of reprices)."""
        builder = KFCBuilder(
            dataset, item_index, weights=self.weights, k=self.k,
            seed=self.seed, candidate_pool=self.candidate_pool,
            arrays=arrays,
        )
        with self._lock:
            epoch = self._epochs.get(city, 0)
        return CityEntry(name=city, dataset=dataset, item_index=item_index,
                         arrays=arrays, builder=builder, epoch=epoch,
                         layout_epoch=epoch - repriced,
                         base=base, base_hash=base_hash)

    # -- the persistent store ----------------------------------------------

    def _store_load(self, city: str,
                    dataset_hash: str | None = None) -> CityAssets | None:
        """The stored base and its journal, or ``None`` (called under
        the city's lock; ``dataset_hash`` keys wire-registered cities).
        A hit skips generation, LDA and the array precompute: the arrays
        are read-only ``mmap`` views that N workers share through the
        OS page cache (the store's ``bytes_mapped`` counter)."""
        if self.store is None:
            return None
        with stage("store_hydrate", city=city):
            assets = self.store.load(city, seed=self.seed, scale=self.scale,
                                     lda_iterations=self.lda_iterations,
                                     dataset_hash=dataset_hash)
        self._count("store_misses" if assets is None else "store_hits")
        return assets

    def _store_save(self, city: str, assets: CityAssets,
                    dataset_hash: str | None = None) -> bool:
        """Publish a base and/or its journal; whether the store holds
        the base (best-effort: a full disk must not fail a request)."""
        if self.store is None:
            return False
        try:
            with stage("store_save", city=city):
                self.store.save(assets, city=city, seed=self.seed,
                                scale=self.scale,
                                lda_iterations=self.lda_iterations,
                                dataset_hash=dataset_hash)
        except OSError:
            return False
        return True

    def entry(self, city: str) -> CityEntry:
        """The pooled assets for ``city``, generating and fitting them
        on first use (template cities only; other names must be
        registered first).  With a store attached, the fit is replaced
        by a disk load whenever a valid entry exists.

        Raises ``KeyError`` for a name that is neither resident nor a
        template, and for an evicted registration the store cannot
        reload."""
        city = city.lower()
        with self._lock:
            existing = self._entries.get(city)
            if existing is not None:
                self._entries.move_to_end(city)  # LRU touch
                return existing
        try:
            with self._lock_for(city):
                return self._entry_locked(city)
        except BaseException:
            self._discard_lock(city)
            raise

    def _entry_locked(self, city: str) -> CityEntry:
        """:meth:`entry`'s load-or-fit body; the caller holds the
        city's lock (which is not reentrant, so :meth:`mutate` calls
        this directly instead of :meth:`entry`).  Eviction, restart and
        shard respawn reload alike: the base, then the journal -- this
        process's log, or in a process that never served the city the
        stored journal, whose length becomes the epoch.  A registered
        name reloads its own stored base and this process's log."""
        with self._lock:
            existing = self._entries.get(city)
            if existing is not None:  # lost the race
                self._entries.move_to_end(city)
                return existing
            log = self._mutation_logs.get(city)
            fresh = city not in self._ever_installed
            registered = city in self._registered
            base_hash = self._registered.get(city)
        if registered:
            base = (self._store_load(city, base_hash)
                    if base_hash is not None else None)
            if base is None:
                raise KeyError(f"city {city!r} was registered and then "
                               "evicted, and the store does not hold it: "
                               "re-register it")
            entry = self._replay_log(city, base, log, True, base_hash)
            self._install(city, entry)
            return entry
        # Resolve the name before any city-tagged stage runs: a name
        # that is no template must not enter the per-city breakdown.
        get_template(city)
        base = self._store_load(city)
        stored = base is not None
        if base is None:
            with stage("city_generate", city=city):
                dataset = generate_city(city, seed=self.seed,
                                        scale=self.scale)
            base = self._fit(city, dataset)
            stored = self._store_save(city, base if log is None else replace(
                base, journal=log.entries))
        elif log is None and fresh and base.journal:
            log = MutationLog(city, max(self.mutation_log_capacity,
                                        len(base.journal)), base.journal)
            with self._lock:
                self._mutation_logs[city] = log
                self._epochs[city] = self._epochs.get(city, 0) + len(log)
        entry = self._replay_log(city, base, log, stored)
        self._install(city, entry)
        return entry

    def _replay_log(self, city: str, base: CityAssets,
                    log: MutationLog | None, stored: bool,
                    base_hash: str | None = None) -> CityEntry:
        """The entry ``(base, log)`` deterministically yields: the log
        replayed over the base, added POIs folded into the item index
        as ``mutate`` did live, one array build.  A log that no longer
        applies retires its epoch: the epoch is bumped and the log (and
        the stored journal) dropped, never served with mismatched data.

        The log's trailing reprices set the layout epoch: the epoch
        counts the log's records last, whatever offset it started at
        (a restart adopts a stored journal at ``epoch += len(journal)``).
        """
        dataset, arrays, repriced = base.dataset, base.arrays, 0
        if log is not None and len(log) > 0:
            try:
                dataset = log.replay(base.dataset)
            except MutationError:
                with self._lock:
                    self._epochs[city] = self._epochs.get(city, 0) + 1
                    self._mutation_logs.pop(city, None)
                if stored:
                    self._store_save(city, replace(base, journal=()),
                                     base_hash)
            else:
                self._count("log_replays")
                for mutation in log.entries:
                    if isinstance(mutation, AddPoi):
                        base.item_index.extend_with(mutation.poi,
                                                    seed=self.seed)
                    repriced = repriced + 1 if mutation.prices_only else 0
                with stage("arrays_build", city=city):
                    arrays = CityArrays.of(dataset, base.item_index)
        return self._assemble_entry(city, dataset, base.item_index, arrays,
                                    base if stored else None, base_hash,
                                    repriced)

    # -- live mutations ------------------------------------------------------

    def epoch(self, city: str) -> int:
        """The city's current live-mutation version (0 if never mutated)."""
        with self._lock:
            return self._epochs.get(city.lower(), 0)

    def mutation_log(self, city: str) -> MutationLog | None:
        """The city's journal of applied mutations (``None`` before the
        first one)."""
        with self._lock:
            return self._mutation_logs.get(city.lower())

    def mutate(self, city: str, mutation: Mutation) -> dict:
        """Apply one live mutation to ``city`` and publish the next
        epoch's entry.

        Under the city's lock: validates the mutation against the
        current dataset, derives the mutated dataset, **patches** the
        ``CityArrays`` bundle incrementally (byte-identical to a full
        build), journals the mutation, bumps the city's epoch and
        installs the new entry.  ``_install`` also re-estimates the
        entry's resident bytes, so LRU eviction pressure tracks patched
        array growth instead of going stale.  A failed patch raises
        before anything is journaled or published.  A reprice keeps the
        entry's ``layout_epoch``; a close or an add moves it to the new
        epoch.

        When the city's base is in the store, the record is appended
        to its journal (about 100 bytes, best-effort).  Returns a
        JSON-able receipt::

            {"city", "epoch", "seq", "patch_ms", "n_pois"}

        Raises :class:`~repro.live.mutations.MutationError` (a
        ``ValueError``) for mutations that do not apply, including a
        full mutation log.
        """
        city = city.lower()
        try:
            with self._lock_for(city):
                entry = self._entry_locked(city)
                mutation.validate(entry.dataset)
                with self._lock:
                    log = self._mutation_logs.get(city)
                if log is None:  # published with its first record
                    log = MutationLog(city,
                                      capacity=self.mutation_log_capacity)
                # A full journal must reject *before* the patch, not at
                # the append below.
                log.raise_if_full()
                new_dataset = mutation.apply(entry.dataset)
                # An added POI is embedded in the already-fitted
                # coordinate system, but joins the shared index only
                # once its patch succeeded: a failed add leaves no
                # vector that no dataset row owns.
                vector = (entry.item_index.embed(mutation.poi, seed=self.seed)
                          if isinstance(mutation, AddPoi) else None)
                started = time.perf_counter()
                with stage("live_patch", city=city):
                    arrays = patch_arrays(entry.arrays, mutation,
                                          entry.dataset, vector)
                patch_ms = (time.perf_counter() - started) * 1000.0
                if vector is not None:
                    entry.item_index.store(mutation.poi.id, vector)
                seq = log.append(mutation)
                with self._lock:
                    self._mutation_logs[city] = log
                    epoch = self._epochs.get(city, 0) + 1
                    self._epochs[city] = epoch
                    self._counters["mutations"] += 1
                # A reprice keeps the rows of the entry it patched.
                keeps_rows = mutation.prices_only and entry.epoch == epoch - 1
                self._install(city, self._assemble_entry(
                    city, new_dataset, entry.item_index, arrays,
                    entry.base, entry.base_hash,
                    epoch - entry.layout_epoch if keeps_rows else 0))
                if entry.base is not None:
                    self._store_save(city, replace(
                        entry.base, journal=log.entries), entry.base_hash)
                return {
                    "city": city,
                    "epoch": epoch,
                    "seq": seq,
                    "patch_ms": patch_ms,
                    "n_pois": len(new_dataset),
                }
        except BaseException:
            self._discard_lock(city)
            raise

    # -- views -------------------------------------------------------------

    def dataset(self, city: str) -> POIDataset:
        return self.entry(city).dataset

    def builder(self, city: str) -> KFCBuilder:
        return self.entry(city).builder

    def arrays(self, city: str) -> CityArrays:
        return self.entry(city).arrays

    def schema(self, city: str) -> ProfileSchema:
        return self.entry(city).schema

    def loaded(self) -> tuple[str, ...]:
        """Names of cities whose assets are materialized."""
        with self._lock:
            return tuple(sorted(self._entries))

    def total_bytes(self) -> int:
        """Estimated resident bytes across all loaded cities (cheap:
        reads the per-entry estimates, no array walks -- the resource
        sampler calls this on every stats/health poll)."""
        with self._lock:
            return sum(self._entry_bytes.values())

    def available(self) -> tuple[str, ...]:
        """Every city this registry can serve without registration."""
        return tuple(sorted(set(city_names()) | set(self._entries)))

    def stats(self) -> dict:
        """Residency and provenance counters, JSON-ready.

        ``counters.fits`` counts LDA fits this registry actually paid;
        a warm-started registry serving only store hits reports zero --
        the signal the store-smoke CI job asserts on.
        """
        with self._lock:
            bytes_by_city = dict(self._entry_bytes)
            counters = dict(self._counters)
            epochs = {c: e for c, e in self._epochs.items() if e}
        snapshot = {
            "cities": sorted(bytes_by_city),
            "max_cities": self.max_cities,
            "bytes_by_city": bytes_by_city,
            "total_bytes": sum(bytes_by_city.values()),
            "counters": counters,
            "epochs": epochs,
        }
        if self.store is not None:
            snapshot["store"] = self.store.stats()
        return snapshot

    # -- synthetic groups ----------------------------------------------------

    def group_profile(self, city: str, spec: GroupSpec) -> GroupProfile:
        """Resolve a :class:`~repro.service.schema.GroupSpec` against a
        city's schema.  Resolution is deterministic in (city, spec) and
        cached, so repeated spec-based requests hash to one cache key."""
        city = city.lower()
        key = (city, spec.size, spec.uniform, spec.seed, spec.method, spec.w1)
        with self._lock:
            cached = self._profiles.get(key)
            if cached is not None:
                self._profiles.move_to_end(key)
                return cached
        entry = self.entry(city)
        with stage("profile_resolve", city=city):
            members = GroupGenerator(entry.schema, seed=spec.seed) \
                .member_matrix(spec.size, uniform=spec.uniform)
            profile = GroupProfile.from_members(
                entry.schema, members, ConsensusMethod(spec.method),
                w1=spec.w1,
            )
        with self._lock:
            self._profiles[key] = profile
            while len(self._profiles) > self._MAX_PROFILES:
                self._profiles.popitem(last=False)
        return profile


def populate_store(store: AssetStore | str | Path, cities: list[str],
                   *, seed: int = 2019, scale: float = 1.0,
                   lda_iterations: int = 120) -> dict[str, str]:
    """Ensure ``store`` holds valid assets for every template city.

    One fit per *missing* city, in the calling process -- the server
    front-end runs this before booting its shards so N workers hydrate
    from disk and the whole cluster pays at most one fit per city.
    Returns ``{city: reason}`` for cities that could not be fitted
    (mirroring the warmup wire op); successes are silent.
    """
    # max_cities=1 bounds peak memory to one city's assets: the store
    # write-back happens inside entry() before the entry is installed,
    # so evicting the previous city cannot lose its on-disk copy.
    registry = CityRegistry(seed=seed, scale=scale,
                            lda_iterations=lda_iterations, store=store,
                            max_cities=1)
    failed: dict[str, str] = {}
    for city in cities:
        try:
            registry.entry(city)
        except Exception as exc:
            failed[city] = str(exc) or exc.__class__.__name__
    return failed
