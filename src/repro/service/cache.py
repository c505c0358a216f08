"""Cross-request package caching.

Building one Travel Package runs CI assembly around every centroid for
several refinement rounds -- tens of milliseconds of numpy work even on
a small city.  Serving interactive traffic means most requests repeat
(a group reloading its itinerary, several members viewing one plan), so
an LRU cache over complete build inputs turns those repeats into a dict
lookup.

The key must capture *everything* the builder's output depends on:
the city, the group profile (hashed canonically from its vector bytes,
once per profile object), the query (its canonical key, derived once
per query), the Equation 1 weights, ``k`` and the FCM seed.  Packages
are immutable (customization swaps in new instances), so cached objects
are shared between callers without copying.  The engine caches each
package next to its wire form (:class:`~repro.service.schema.Encoded`
dicts of the package and its metrics, encoded once on the miss); those
are shared by every hit too and are equally read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from threading import Lock

from repro.core.objective import ObjectiveWeights
from repro.core.query import GroupQuery
from repro.obs import MetricsRegistry, stage
from repro.obs.metrics import total
from repro.profiles.group import GroupProfile


def profile_fingerprint(profile: GroupProfile) -> str:
    """A canonical content hash of a group profile
    (:meth:`GroupProfile.fingerprint`).

    Two profiles with equal per-category vectors hash equally no matter
    how they were constructed (consensus, refinement, or the wire), so
    a client resubmitting a round-tripped profile still hits the cache.
    A profile computes it once and keeps it: the registry's spec
    resolution returns one profile object per spec, so a spec-based
    warm hit hashes nothing.
    """
    return profile.fingerprint()


def cache_key(city: str, profile: GroupProfile, query: GroupQuery,
              weights: ObjectiveWeights | None, k: int | None,
              seed: int | None, epoch: int = 0) -> tuple:
    """The full cache key for one build request.

    ``None`` for ``weights``/``k``/``seed`` means "the city builder's
    defaults" and is kept distinct from explicit values on purpose: two
    registries may configure the same city differently.

    ``epoch`` is the city's live-mutation version (see
    :class:`~repro.service.registry.CityEntry`).  Keying on it makes
    mutation-driven invalidation structural: every entry cached against
    an older dataset simply stops matching after a mutation, so no read
    can be stale; :meth:`PackageCache.purge` then frees those entries
    at the commit, one city's entries at a time.
    """
    weights_part = (
        (weights.alpha, weights.beta, weights.gamma, weights.fuzzifier)
        if weights is not None else None
    )
    return (city, profile.fingerprint(), query.key(), weights_part,
            k, seed, epoch)


def cache_counts(snapshot: Mapping) -> dict:
    """The lookup counters of a registry snapshot (one process's or a
    cluster merge): all-time hits, misses, LRU evictions, entries
    purged for a superseded epoch, and hit rate."""
    hits = total(snapshot, "cache_hits")
    misses = total(snapshot, "cache_misses")
    return {
        "hits": hits,
        "misses": misses,
        "evictions": total(snapshot, "cache_evictions"),
        "purges": total(snapshot, "cache_purges"),
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


class PackageCache:
    """A thread-safe LRU cache of build results.

    Values are whatever the engine stores per key -- in practice the
    built :class:`~repro.core.package.TravelPackage`, its wire dict and
    its derived quality metrics (both
    :class:`~repro.service.schema.Encoded`), so a warm hit repeats none
    of the numpy work and none of the serialization.

    Keys are :func:`cache_key` tuples (or any tuple led by a city and
    ended by an epoch): the cache indexes its keys by city, so
    :meth:`purge` touches only one city's entries.

    Args:
        capacity: Maximum number of cached entries; the least recently
            used entry is evicted beyond it.
        windows: The metrics registry lookups, evictions and purges
            count into (``cache_hits``, ``cache_misses``,
            ``cache_evictions``, ``cache_purges``): the owning
            service's, so its stats and SLO monitor see them, or a
            private one when omitted.
    """

    def __init__(self, capacity: int = 256,
                 windows: MetricsRegistry | None = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self.windows = windows if windows is not None else MetricsRegistry()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        # city -> its keys (a dict as an ordered set), for purge().
        self._by_city: dict[object, dict[tuple, None]] = {}
        self._lock = Lock()

    def get(self, key: tuple):
        """The cached value for ``key``, refreshing its recency;
        ``None`` (and a counted miss) when absent."""
        with stage("cache_lookup"), self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        self.windows.counter_inc(
            "cache_hits" if value is not None else "cache_misses")
        return value

    def put(self, key: tuple, value) -> None:
        """Insert (or refresh) a value, evicting the LRU entry when
        over capacity."""
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._by_city.setdefault(key[0], {})[key] = None
            while len(self._entries) > self.capacity:
                victim, _ = self._entries.popitem(last=False)
                self._forget(victim)
                evicted += 1
        if evicted:
            self.windows.counter_inc("cache_evictions", evicted)

    def _forget(self, key: tuple) -> None:
        """Drop ``key`` from the city index (caller holds the lock)."""
        keys = self._by_city[key[0]]
        del keys[key]
        if not keys:
            del self._by_city[key[0]]

    def purge(self, city: str, epoch: int) -> int:
        """Drop ``city``'s entries keyed on an epoch before ``epoch``:
        once the city moved on, no request can hit them.  Costs
        O(the city's entries); returns how many were dropped (counted
        as ``cache_purges``, not as evictions)."""
        with self._lock:
            keys = self._by_city.get(city, {})
            stale = [key for key in keys if key[-1] < epoch]
            for key in stale:
                del self._entries[key]
                self._forget(key)
        if stale:
            self.windows.counter_inc("cache_purges", len(stale))
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def stats(self) -> dict:
        """Size, capacity and all-time lookup counters."""
        return {"size": len(self._entries), "capacity": self.capacity,
                **cache_counts(self.windows.snapshot())}

    def clear(self) -> None:
        """Drop all entries (counters are kept; cold-start benchmarks
        reset by constructing a fresh cache)."""
        with self._lock:
            self._entries.clear()
            self._by_city.clear()
