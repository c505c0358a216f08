"""Concurrency stress for :class:`~repro.service.cache.PackageCache`.

A shard serves one request at a time, but a ``PackageService`` (and
its cache) stays safe for callers that share it across threads, so
the cache's lock discipline must hold under real thread contention: no
lost updates, the LRU bound respected at every moment, and counters
that add up exactly.  These tests hammer it from >= 8 threads through a
barrier start so the threads genuinely overlap.
"""

import random
import threading

from repro.service import PackageCache

THREADS = 8
OPS_PER_THREAD = 400


def _hammer(n_threads, worker):
    """Run ``worker(thread_index, rng)`` on ``n_threads`` threads with a
    barrier'd start; re-raises the first worker exception."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def run(index):
        rng = random.Random(1000 + index)
        try:
            barrier.wait()
            worker(index, rng)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestCacheStress:
    def test_no_lost_updates_without_eviction_pressure(self):
        """Capacity >= total distinct keys: after the storm every key
        must be present with exactly its own value (values are tied to
        their key, so a torn read/write would surface as a mismatch)."""
        cache = PackageCache(capacity=THREADS * OPS_PER_THREAD)
        gets = []
        gets_lock = threading.Lock()

        def worker(index, rng):
            observed = 0
            for i in range(OPS_PER_THREAD):
                key = ("k", index, i)
                cache.put(key, ("v", index, i))
                # Interleave reads of *other* threads' keyspace too.
                probe = ("k", rng.randrange(THREADS),
                         rng.randrange(OPS_PER_THREAD))
                value = cache.get(probe)
                if value is not None:
                    assert value == ("v", probe[1], probe[2])
                observed += 1
            with gets_lock:
                gets.append(observed)

        _hammer(THREADS, worker)

        assert sum(gets) == THREADS * OPS_PER_THREAD
        # No lost updates: every put key is present with its own value.
        for index in range(THREADS):
            for i in range(OPS_PER_THREAD):
                assert cache.get(("k", index, i)) == ("v", index, i)
        stats = cache.stats()
        assert stats["size"] == THREADS * OPS_PER_THREAD
        assert stats["evictions"] == 0
        # Counter exactness: the storm's gets plus the verification
        # sweep above, nothing dropped under contention.
        total_lookups = THREADS * OPS_PER_THREAD * 2
        assert stats["hits"] + stats["misses"] == total_lookups

    def test_lru_bound_holds_under_contention(self):
        """Tiny capacity, many threads: the size bound must hold at
        every observation point, not just at the end, and the hit/miss
        ledger must balance the number of lookups exactly."""
        capacity = 8
        cache = PackageCache(capacity=capacity)
        keyspace = capacity * 4  # guarantees constant eviction churn
        lookups = [0] * THREADS

        def worker(index, rng):
            count = 0
            for _ in range(OPS_PER_THREAD):
                key = ("k", rng.randrange(keyspace))
                if rng.random() < 0.5:
                    cache.put(key, ("v", key[1]))
                else:
                    value = cache.get(key)
                    count += 1
                    if value is not None:
                        assert value == ("v", key[1])
                # The bound must hold mid-storm, under every
                # interleaving -- not only after the dust settles.
                assert len(cache) <= capacity
            lookups[index] = count

        _hammer(THREADS, worker)

        stats = cache.stats()
        assert stats["size"] <= capacity
        assert stats["hits"] + stats["misses"] == sum(lookups)
        assert stats["evictions"] > 0  # the storm really churned
        assert 0.0 <= stats["hit_rate"] <= 1.0

    def test_put_get_same_key_race(self):
        """All threads fight over ONE key: reads must only ever see
        complete values some thread actually wrote."""
        cache = PackageCache(capacity=2)
        key = ("contended",)
        valid = {("v", t) for t in range(THREADS)}

        def worker(index, rng):
            mine = ("v", index)
            for _ in range(OPS_PER_THREAD):
                cache.put(key, mine)
                value = cache.get(key)
                assert value in valid  # never torn, never foreign

        _hammer(THREADS, worker)
        assert cache.get(key) in valid
