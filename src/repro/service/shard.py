"""City-affinity sharding: one serial queue per shard under the server.

A :class:`ShardCluster` runs ``n`` workers, each owning a **complete,
private** serving stack -- its own
:class:`~repro.service.registry.CityRegistry` and
:class:`~repro.service.engine.PackageService` -- for the cities routed
to it.  The expensive per-city assets (LDA item vectors, the
:class:`~repro.core.arrays.CityArrays` compute bundle, FCM centroid
seeds, the package cache) are therefore built **once, inside the owning
worker** -- each worker's private registry pays the array precompute at
registration time, exactly like a single-process service -- and never
cross the process boundary; the only traffic
between front-end and workers is the picklable wire dicts of
:meth:`~repro.service.engine.PackageService.dispatch`.

Routing rules:

* ``build`` / ``open_session`` / ``mutate`` / ``batch`` requests route
  by **city affinity** -- explicit placement first (cities named up
  front are spread round-robin), a stable CRC32 hash of the city name
  otherwise.  Mutations therefore hit the one shard that owns the
  city's entry, epoch counter and mutation log (single-writer epochs).
  ``hash()`` is per-process salted and useless here; routing must be
  identical across runs for the determinism guarantees to hold.
* ``customize`` / ``close_session`` requests are **sticky**: a session
  id leaving the cluster is prefixed ``"<shard>/<local-id>"`` and later
  requests are routed back to the shard that opened the session (whose
  worker holds the session state).
* ``batch`` requests are split per shard, served concurrently, and
  reassembled in request order.
* ``stats``, ``health`` and ``trace`` fan out to every shard and merge
  (the shards' metrics registries -- all-time totals and windows, obs
  stages included -- bucket-exactly via one ``merge_metrics_snapshots``,
  slowest-trace rings by trace id; the cluster SLO verdict re-evaluates
  over the merged windows and folds in per-shard states).

Each shard is one worker behind a one-thread queue, so a shard serves
its cities serially (its internal cache and FCM seed caches see every
request) and the cluster's concurrency equals its shard count.  A
process shard's worker is one ``multiprocessing.Process`` answering
``(op, payload)`` frames over a duplex pipe.  ``use_processes=False``
runs each shard's service on its queue thread instead -- same routing
and stickiness, without fork/IPC cost; tests and the stdin server mode
use it, and it accepts a ``service_factory`` so suites can inject
services over pre-fitted registries.
"""

from __future__ import annotations

import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process
from multiprocessing.connection import Connection
from threading import Lock
from typing import Callable
from weakref import WeakSet

from repro.core.objective import ObjectiveWeights
from repro.obs import (
    ObsConfig,
    SLOConfig,
    SLOMonitor,
    Tracer,
    WindowConfig,
    merge_metrics_snapshots,
    merge_verdicts,
)
from repro.service.engine import (
    MAX_BATCH_REQUESTS,
    PackageService,
    obs_section,
    stats_sections,
)
from repro.service.registry import CityRegistry
from repro.service.schema import ErrorCode, PackageResponse, trace_limit


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker needs to build its serving stack.

    Must stay picklable (plain numbers plus ``ObjectiveWeights``): it is
    the *only* object shipped to worker processes at startup.

    Attributes mirror :class:`~repro.service.registry.CityRegistry` and
    :class:`~repro.service.engine.PackageService` construction knobs.
    """

    seed: int = 2019
    scale: float = 1.0
    lda_iterations: int = 120
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    cache_capacity: int = 256
    #: Root of a persistent :class:`~repro.store.AssetStore`; workers
    #: hydrate template cities from it instead of refitting LDA.  A
    #: plain string (not a live store object) so the config stays
    #: trivially picklable.
    store_path: str | None = None
    #: LRU residency bound for each worker's private registry.
    max_cities: int | None = None
    #: Observability knobs; each worker builds its own tracer from them
    #: (:class:`~repro.obs.ObsConfig` is a frozen dataclass of plain
    #: values, so the config stays picklable).
    obs: ObsConfig | None = None
    #: Windowed-telemetry ring shape shared by every worker; identical
    #: intervals are what make per-shard windows merge front-side.
    window: WindowConfig | None = None
    #: SLO targets each worker's (and the cluster's) ``health`` op
    #: evaluates; both dataclasses are frozen plain values, so the
    #: config stays picklable.
    slo: SLOConfig | None = None

    def make_service(self, shard_id: int | None = None) -> PackageService:
        """A fresh serving stack per this configuration (runs in the
        worker for process shards), stamped as shard ``shard_id``."""
        registry = CityRegistry(
            seed=self.seed, scale=self.scale,
            lda_iterations=self.lda_iterations, weights=self.weights,
            store=self.store_path, max_cities=self.max_cities,
        )
        return PackageService(registry, cache_capacity=self.cache_capacity,
                              obs=self.obs, window=self.window,
                              slo=self.slo, shard=shard_id)


# -- the worker process -------------------------------------------------------

def _tag_shard(result: dict, shard_id: int) -> dict:
    """Stamp the serving shard onto a dispatch result (and any nested
    batch responses) so clients can observe routing."""
    result["shard"] = shard_id
    for sub in result.get("responses", ()):
        sub["shard"] = shard_id
    return result


def _worker_main(conn: Connection, config: ShardConfig, shard_id: int) -> None:
    """A process shard's worker: build the private stack, then answer
    each ``(op, payload)`` frame until the ``None`` sentinel.

    Building the stack is deliberately cheap -- city generation and LDA
    fitting stay lazy, so a broken fit surfaces as an error *response*
    to the offending request (or warmup call), not as a dead worker.
    An exception goes back as the reply, for the front end to re-raise.
    """
    # A forked worker holds copies of the front end's pipe ends, its
    # own included; while any copy is open it would never read EOF, and
    # would outlive a front end that dies without sending the sentinel.
    for end in list(_FRONT_ENDS):
        end.close()
    service = config.make_service(shard_id)
    for op, payload in iter(conn.recv, None):
        try:
            reply = _tag_shard(service.dispatch(op, payload), shard_id)
        except Exception as exc:
            reply = exc
        conn.send(reply)
    service.close()


#: Held while a worker is forked and the parent closes its pipe end.
_SPAWN_LOCK = Lock()

#: The front end's ends of every worker pipe in this process.
_FRONT_ENDS: WeakSet[Connection] = WeakSet()


# -- future plumbing ----------------------------------------------------------

def _completed(value: dict) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def _chain(future: Future, fn: Callable[[dict], dict]) -> Future:
    """``fn`` applied to ``future``'s result, as a new Future (no
    blocking; runs in the done-callback)."""
    out: Future = Future()

    def _done(completed: Future) -> None:
        try:
            out.set_result(fn(completed.result()))
        except BaseException as exc:  # pragma: no cover - plumbing guard
            out.set_exception(exc)

    future.add_done_callback(_done)
    return out


def _gather(futures: list[Future], combine: Callable[[list[dict]], dict]) -> Future:
    """One Future resolving to ``combine([f.result() ...])`` once every
    input future is done (order preserved)."""
    out: Future = Future()
    results: list[dict | None] = [None] * len(futures)
    state = {"pending": len(futures)}
    lock = Lock()
    if not futures:
        out.set_result(combine([]))
        return out

    def _done(index: int, completed: Future) -> None:
        with lock:
            try:
                results[index] = completed.result()
            except BaseException as exc:
                if not out.done():
                    out.set_exception(exc)
                return
            state["pending"] -= 1
            finished = state["pending"] == 0
        if finished and not out.done():
            try:
                out.set_result(combine(results))  # type: ignore[arg-type]
            except BaseException as exc:  # pragma: no cover - plumbing guard
                out.set_exception(exc)

    for index, future in enumerate(futures):
        future.add_done_callback(
            lambda completed, index=index: _done(index, completed)
        )
    return out


# -- the cluster --------------------------------------------------------------

class _Shard:
    """One worker behind a one-thread submission queue.

    Every shard serves through a ``ThreadPoolExecutor(max_workers=1)``
    running :meth:`_call`.  A thread shard's call is its service's
    ``dispatch``; a process shard's call is one ``send``/``recv`` on a
    duplex pipe to its worker process (:func:`_worker_main`).

    Process shards **self-heal**: a worker killed mid-request (OOM
    killer, segfault in a native library, operator mistake) or between
    requests shows up as ``EOFError``/``OSError`` on the pipe, so the
    call respawns the worker and retries the request once on it; a
    request that kills two workers in a row propagates its failure, as
    does a respawn whose fork fails (the next request respawns again).
    The replacement worker starts empty: its customization sessions are
    lost (clients get structured ``unknown_session`` errors) and its
    cities re-hydrate lazily -- cheap when a
    :attr:`ShardConfig.store_path` is set, since rebuilding is a disk
    load instead of an LDA fit.  ``restarted`` counts respawns and is
    surfaced through the cluster's stats.
    """

    def __init__(self, shard_id: int, config: ShardConfig,
                 use_processes: bool,
                 service_factory: Callable[[int], PackageService] | None) -> None:
        self.id = shard_id
        self.restarted = 0
        self._config = config
        self._closed = False
        self._service: PackageService | None = None
        self._process: Process | None = None
        if use_processes:
            self._spawn()
        else:
            self._service = (service_factory(shard_id) if service_factory
                             else config.make_service(shard_id))
            if (self._service is not None
                    and self._service.tracer.shard != shard_id):
                raise ValueError(f"service_factory must build shard "
                                 f"{shard_id}'s service with shard={shard_id}")
        self._queue = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"shard-{shard_id}"
        )

    def _spawn(self) -> None:
        # Under one lock, so no sibling's fork inherits this worker's
        # pipe end before the parent closes its copy: a dead worker must
        # read as EOF on ``_conn``.
        with _SPAWN_LOCK:
            self._conn, child = Pipe()
            _FRONT_ENDS.add(self._conn)
            self._process = Process(target=_worker_main, daemon=True,
                                    name=f"shard-{self.id}",
                                    args=(child, self._config, self.id))
            try:
                self._process.start()
            except BaseException:
                # No worker (fork failed): close our end as well, so the
                # next call fails on the closed pipe and respawns instead
                # of waiting for a reply that cannot come.
                self._conn.close()
                self._process = None
                raise
            finally:
                child.close()

    def _round_trip(self, op: str, payload: dict) -> dict | Exception:
        self._conn.send((op, payload))
        return self._conn.recv()

    def _call(self, op: str, payload: dict) -> dict:
        if self._service is not None:
            return _tag_shard(self._service.dispatch(op, payload), self.id)
        try:
            reply = self._round_trip(op, payload)
        except (EOFError, OSError):
            if self._closed:
                raise
            # The worker died, idle or under this request: replace it
            # and retry once.
            self._conn.close()
            if self._process is not None:
                self._process.kill()
                self._process.join()
            self._spawn()
            self.restarted += 1
            reply = self._round_trip(op, payload)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def submit(self, op: str, payload: dict) -> Future:
        return self._queue.submit(self._call, op, payload)

    def shutdown(self) -> None:
        """Drain the queue, then stop the worker.  The worker stops on a
        sentinel frame, not on EOF: under fork, the worker and every
        worker started after it hold copies of this pipe's parent end,
        so closing it here would never reach the worker."""
        self._closed = True
        self._queue.shutdown()
        if self._process is not None:
            try:
                self._conn.send(None)
            except OSError:
                pass  # already dead or already stopped
            self._process.join()
            self._conn.close()
        if self._service is not None:
            self._service.close()


class ShardCluster:
    """A sharded, city-affine serving cluster with a dispatch API
    mirroring :meth:`PackageService.dispatch
    <repro.service.engine.PackageService.dispatch>`.

    Args:
        shards: Number of workers (>= 1).
        config: Per-worker serving configuration.
        cities: Cities to place up front, spread round-robin in the
            given order (so ``cities=["paris", "rome"]`` over two shards
            puts one city on each).  Other cities hash to a shard.
        use_processes: Process workers (the real deployment shape) or
            single-thread workers (cheap; for tests and stdin serving).
        service_factory: Thread mode only -- build shard ``i``'s service
            (e.g. over a pre-fitted registry; built with ``shard=i``, or
            ``ValueError``) instead of from ``config``.
    """

    def __init__(self, shards: int = 2, config: ShardConfig | None = None,
                 cities: list[str] | tuple[str, ...] | None = None,
                 use_processes: bool = True,
                 service_factory: Callable[[int], PackageService] | None = None) -> None:
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        if use_processes and service_factory is not None:
            raise ValueError("service_factory requires use_processes=False")
        self.config = config or ShardConfig()
        self._placement: dict[str, int] = {}
        self._shards: list[_Shard] = []
        try:
            for i in range(shards):
                self._shards.append(_Shard(i, self.config, use_processes,
                                           service_factory))
        except BaseException:
            # A worker that failed to start: stop the ones already up.
            for shard in self._shards:
                shard.shutdown()
            raise
        self._closed = False
        for index, city in enumerate(cities or ()):
            self._placement[city.lower()] = index % shards

    # -- routing -----------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def placement(self) -> dict[str, int]:
        """Explicitly placed cities (hash-routed cities are absent)."""
        return dict(self._placement)

    def shard_for(self, city: str) -> int:
        """The shard serving ``city``: explicit placement, else a stable
        content hash (identical across processes and runs)."""
        city = city.lower()
        placed = self._placement.get(city)
        if placed is not None:
            return placed
        return zlib.crc32(city.encode("utf-8")) % len(self._shards)

    @staticmethod
    def _split_session_id(session_id: str) -> tuple[int, str] | None:
        shard, sep, local = str(session_id).partition("/")
        # isdecimal(), not isdigit(): the latter accepts characters
        # (e.g. superscripts) that int() rejects with ValueError.
        if sep and shard.isdecimal():
            return int(shard), local
        return None

    def _session_error(self, session_id: str, request_id) -> Future:
        return _completed(PackageResponse(
            city="", error=f"no open session {session_id!r}",
            code=ErrorCode.UNKNOWN_SESSION.value,
            session_id=str(session_id) or None, request_id=request_id,
        ).to_dict())

    @staticmethod
    def _prefix_session(result: dict, shard_id: int) -> dict:
        local = result.get("session_id")
        if local is not None:
            result["session_id"] = f"{shard_id}/{local}"
        return result

    # -- dispatch ----------------------------------------------------------

    def submit(self, op: str, payload: dict) -> Future:
        """Route one wire operation to its shard(s); the Future resolves
        to the response dict (session ids in cluster form)."""
        if self._closed:
            raise RuntimeError("cluster is shut down")
        if op in ("build", "open_session", "mutate"):
            # City-affinity ops, mutate included: the owning shard holds
            # the city's entry, epoch and mutation log, so routing the
            # mutation there keeps the epoch sequence single-writer.
            shard = self.shard_for(str(payload.get("city", "")))
            future = self._shards[shard].submit(op, payload)
            if op == "open_session":
                return _chain(future,
                              lambda r, s=shard: self._prefix_session(r, s))
            return future
        if op in ("customize", "close_session"):
            route = self._split_session_id(payload.get("session_id", ""))
            if route is None or route[0] >= len(self._shards):
                return self._session_error(payload.get("session_id", ""),
                                           payload.get("request_id"))
            shard, local = route
            rewritten = dict(payload, session_id=local)
            future = self._shards[shard].submit(op, rewritten)
            return _chain(future,
                          lambda r, s=shard: self._prefix_session(r, s))
        if op == "batch":
            return self._submit_batch(payload)
        if op == "warmup":
            return self._submit_warmup(payload)
        if op == "stats":
            return _gather([s.submit("stats", {}) for s in self._shards],
                           self._combine_stats)
        if op == "health":
            return _gather([s.submit("health", {}) for s in self._shards],
                           self._combine_health)
        if op == "trace":
            # Workers return their *full* rings and the limit applies
            # only after the union: a worker-side trim could cut the
            # worker's portion of a trace whose front-end portion (or a
            # sibling sub-batch's) still ranks.  Rings are bounded, so
            # "full" is still small.
            try:
                limit = trace_limit(payload)
            except ValueError as exc:
                return _completed(PackageResponse(
                    city="", error=f"bad trace payload: {exc}",
                    code=ErrorCode.BAD_REQUEST.value,
                ).to_dict())
            worker_payload = {k: v for k, v in payload.items()
                              if k != "limit"}
            return _gather(
                [s.submit("trace", dict(worker_payload))
                 for s in self._shards],
                lambda results: {"traces": Tracer.merge_traces(
                    [r.get("traces", ()) for r in results], limit=limit,
                )},
            )
        if op == "ping":
            return _gather([s.submit("ping", {}) for s in self._shards],
                           lambda results: {"ok": all(r.get("ok")
                                                      for r in results),
                                            "shards": len(results)})
        return _completed(PackageResponse(
            city="", error=f"unknown operation {op!r}",
            code=ErrorCode.BAD_REQUEST.value,
            request_id=(payload.get("request_id")
                        if isinstance(payload, dict) else None),
        ).to_dict())

    def dispatch(self, op: str, payload: dict) -> dict:
        """Blocking convenience over :meth:`submit`."""
        return self.submit(op, payload).result()

    def _submit_batch(self, payload: dict) -> Future:
        requests = payload.get("requests")
        if not isinstance(requests, list):
            return _completed(PackageResponse(
                city="", error="batch payload needs a 'requests' list",
                code=ErrorCode.BAD_REQUEST.value,
            ).to_dict())
        if len(requests) > MAX_BATCH_REQUESTS:
            # One envelope is one admission-control unit; an unbounded
            # batch inside it would queue unbounded work regardless.
            return _completed(PackageResponse(
                city="", error=f"batch of {len(requests)} exceeds the "
                               f"{MAX_BATCH_REQUESTS}-request limit",
                code=ErrorCode.BAD_REQUEST.value,
            ).to_dict())
        slots: list[dict | None] = [None] * len(requests)
        groups: dict[int, list[int]] = {}
        for index, request in enumerate(requests):
            if not isinstance(request, dict):
                # Never ships to a worker; the slot errors in place.
                slots[index] = PackageResponse(
                    city="", error="batch elements must be request objects",
                    code=ErrorCode.BAD_REQUEST.value,
                ).to_dict()
                continue
            city = str(request.get("city", ""))
            groups.setdefault(self.shard_for(city), []).append(index)

        ordered = sorted(groups.items())
        futures = [
            self._shards[shard].submit(
                "batch", {"requests": [requests[i] for i in indices]}
            )
            for shard, indices in ordered
        ]

        def _reassemble(results: list[dict]) -> dict:
            for (_, indices), result in zip(ordered, results):
                sub = result.get("responses")
                if sub is None:
                    # The worker answered with a top-level error (e.g.
                    # bad_request): every slot of that sub-batch gets it.
                    sub = [result] * len(indices)
                for index, response in zip(indices, sub):
                    slots[index] = response
            return {"responses": slots}

        return _gather(futures, _reassemble)

    def _submit_warmup(self, payload: dict) -> Future:
        cities = [str(c) for c in payload.get("cities", ())]
        groups: dict[int, list[str]] = {}
        for city in cities:
            groups.setdefault(self.shard_for(city), []).append(city)
        futures = [self._shards[shard].submit("warmup", {"cities": group})
                   for shard, group in sorted(groups.items())]

        def _combine(results: list[dict]) -> dict:
            combined: dict = {"cities": sorted(
                {c for r in results for c in r.get("cities", ())}
            )}
            failed: dict[str, str] = {}
            for result in results:
                failed.update(result.get("failed", {}))
            if failed:
                combined["failed"] = failed
            return combined

        return _gather(futures, _combine)

    # -- lifecycle / observability ----------------------------------------

    def warm(self, cities: list[str] | tuple[str, ...] | None = None) -> dict:
        """Fit city assets ahead of traffic, each on its owning shard
        (defaults to the explicitly placed cities)."""
        cities = list(cities) if cities is not None else list(self._placement)
        return self.dispatch("warmup", {"cities": cities})

    def _combine_stats(self, results: list[dict]) -> dict:
        # Every event count lives in the shards' metrics registries:
        # one exact merge of their snapshots yields the cluster's
        # cache, assembly, live and metrics sections.
        merged = merge_metrics_snapshots(
            [r["metrics"]["windows"] for r in results])
        sections = stats_sections(merged)
        cache = {key: sum(r["cache"][key] for r in results)
                 for key in ("size", "capacity")}
        cache.update(sections["cache"])
        # Respawn counts live front-side (the worker that crashed
        # cannot report its own death); stamp them onto each shard's
        # answer and total them.  Utilization is each shard's share of
        # the cluster's completed operations -- the routing-skew gauge
        # (guarded: a cluster that has served nothing is 0.0 everywhere).
        total_ops = sections["metrics"]["total_operations"]
        for shard, result in zip(self._shards, results):
            result["restarted"] = shard.restarted
            shard_ops = result["metrics"]["total_operations"]
            result["utilization"] = (shard_ops / total_ops if total_ops
                                     else 0.0)
        registry: dict = {"counters": {}, "total_bytes": 0}
        store: dict = {}
        for result in results:
            shard_registry = result.get("registry", {})
            registry["total_bytes"] += shard_registry.get("total_bytes", 0)
            for name, value in shard_registry.get("counters", {}).items():
                registry["counters"][name] = (
                    registry["counters"].get(name, 0) + value
                )
            # Store provenance (hits, bytes_mapped, repairs, ...) sums
            # across workers; the directory census (entries,
            # disk_bytes) describes the one shared root, so the max is
            # the honest cluster figure, not the sum.
            for name, value in (shard_registry.get("store") or {}).items():
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    continue
                fold = max if name in ("entries", "disk_bytes") else \
                    lambda a, b: a + b
                store[name] = fold(store[name], value) \
                    if name in store else value
        if store:
            registry["store"] = store
        # Event-log counts are the one obs figure outside the registry
        # (the log writes under its lock); total the shards' own.
        logs = [r["obs"]["log"] for r in results if "log" in r["obs"]]
        return {
            "shards": results,
            "placement": self.placement,
            "cities": sorted({c for r in results for c in r["cities"]}),
            "open_sessions": sum(r["open_sessions"] for r in results),
            "restarted": sum(s.restarted for s in self._shards),
            "cache": cache,
            "registry": registry,
            "assembly": sections["assembly"],
            "live": sections["live"],
            "metrics": sections["metrics"],
            "obs": obs_section(
                merged, any(r["obs"]["enabled"] for r in results),
                {key: sum(log[key] for log in logs)
                 for key in ("written", "dropped")} if logs else None),
        }

    def _combine_health(self, results: list[dict]) -> dict:
        """One cluster verdict from per-shard ``health`` answers.

        The per-shard windowed snapshots merge exactly (epoch-aligned
        starts), and the cluster SLO is re-evaluated over the *merged*
        windows -- so the cluster p99 is the union p99, not the worst
        shard's.  Per-shard verdicts still fold in: one shard drowning
        while its siblings idle can vanish from aggregate rates, but
        its own ``degraded`` state must not.
        """
        merged_windows = merge_metrics_snapshots(
            [r.get("windows") for r in results])
        cluster = SLOMonitor(self.config.slo).evaluate(merged_windows)
        verdict = merge_verdicts(
            cluster,
            *((f"shard:{r.get('shard', i)}", r.get("health", {}))
              for i, r in enumerate(results)),
        )
        return {
            "health": verdict,
            "windows": merged_windows,
            "shards": [{"shard": r.get("shard", i),
                        "state": r.get("health", {}).get("state", "ok")}
                       for i, r in enumerate(results)],
        }

    def stats(self) -> dict:
        """Merged cluster counters plus the per-shard breakdown."""
        return self.dispatch("stats", {})

    def health(self) -> dict:
        """Blocking convenience over the ``health`` wire op."""
        return self.dispatch("health", {})

    def shutdown(self) -> None:
        """Stop accepting work, drain each shard's queued requests, then
        stop the workers."""
        self._closed = True
        for shard in self._shards:
            shard.shutdown()

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
