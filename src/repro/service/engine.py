"""The ``PackageService`` facade -- GroupTravel as a serving engine.

One service instance holds a :class:`~repro.service.registry.CityRegistry`
(per-city pooled assets), a :class:`~repro.service.cache.PackageCache`
(cross-request LRU over complete build inputs) and a
:class:`~repro.obs.MetricsRegistry` holding every service-level count,
and exposes:

* :meth:`PackageService.build` -- one request, one response, cached;
* :meth:`PackageService.build_batch` -- independent requests served
  one after another on the caller's thread, in order;
* :meth:`PackageService.open_session` / :meth:`PackageService.apply` --
  stateful concurrent customization sessions whose interaction logs
  feed the existing profile-refinement strategies.

Every entry point takes and returns the wire types of
:mod:`repro.service.schema`; failures come back as error responses, not
exceptions, so one bad request cannot poison a batch.

Every build and customization session runs against the registry's
per-city :class:`~repro.core.arrays.CityArrays` bundle (precomputed at
registration), so cache-miss requests score contiguous arrays rather
than re-deriving per-city constants from POI objects.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from threading import Lock

import numpy as np

from repro.core.assembly import (
    AssemblyCounters,
    collect_assembly_counters,
    composite_items,
)
from repro.core.customize import CustomizationSession, Interaction
from repro.core.package import TravelPackage, bundle_metrics
from repro.core.query import DEFAULT_QUERY, GroupQuery
from repro.core.refine import refine_batch
from repro.data.poi import POI, Category
from repro.live.mutations import mutation_from_dict
from repro.obs import (
    ObsConfig,
    ResourceSampler,
    SLOConfig,
    SLOMonitor,
    TraceContext,
    Tracer,
    WindowConfig,
    stage,
)
from repro.obs.metrics import total
from repro.obs.trace import CITY_PREFIX, STAGE_PREFIX, TRACE_COUNTERS
from repro.profiles.group import GroupProfile
from repro.service.cache import PackageCache, cache_counts, cache_key
from repro.service.registry import CityEntry, CityRegistry
from repro.service.schema import (
    BuildRequest,
    CustomizeOp,
    CustomizeRequest,
    Encoded,
    ErrorCode,
    PackageResponse,
    trace_limit,
)

#: Bound on requests per ``batch`` wire envelope.  Admission control
#: counts an envelope as one in-flight unit, so the envelope itself
#: must not be a loophole for queueing unbounded work.
MAX_BATCH_REQUESTS = 64

#: Live-mutation counters ``stats()["live"]`` reports, each the all-time
#: total of the ``live.<name>`` series.
_LIVE_COUNTERS = ("mutations_applied", "sessions_replayed", "sessions_stale")


def stats_sections(snapshot: Mapping) -> dict:
    """The ``metrics``, ``cache``, ``assembly`` and ``live`` sections of
    :meth:`PackageService.stats` from one registry snapshot.

    A shard reads its own snapshot; the cluster reads the exact merge of
    its shards' snapshots, so both views come from the same series by
    the same rules.  ``cache`` holds only the event counters: ``size``
    and ``capacity`` describe the cache object, not the snapshot.
    """
    operations = {name.partition(":")[2]: total(snapshot, name)
                  for name in snapshot.get("series", {})
                  if name.startswith("latency:")}
    count = sum(op["count"] for op in operations.values())
    uptime = float(snapshot.get("uptime_s", 0.0))
    live = {name: total(snapshot, f"live.{name}") for name in _LIVE_COUNTERS}
    patch = total(snapshot, "live.patch_ms")
    live["patch_ms_total"] = patch["total_ms"] if patch else 0.0
    return {
        "cache": cache_counts(snapshot),
        "assembly": {name: total(snapshot, f"assembly.{name}")
                     for name in ("rows_scored", "rows_total")},
        "live": live,
        "metrics": {
            "uptime_s": uptime,
            "total_operations": count,
            "throughput_per_s": count / uptime if uptime > 0 else 0.0,
            "operations": operations,
            "windows": snapshot,
        },
    }


def obs_section(snapshot: Mapping, enabled: bool,
                log: Mapping | None = None) -> dict:
    """The ``obs`` section of ``stats`` from one registry snapshot, read
    like :func:`stats_sections`.  The event-log counts ``log`` come from
    outside: the log writes under the registry's lock, so they cannot
    be registry series."""
    section = {"enabled": enabled,
               "counters": {name: total(snapshot, f"obs.{name}")
                            for name in TRACE_COUNTERS}}
    for key, prefix in (("stages", STAGE_PREFIX), ("cities", CITY_PREFIX)):
        section[key] = {name[len(prefix):]: total(snapshot, name)
                        for name in snapshot.get("series", {})
                        if name.startswith(prefix)}
    if log is not None:
        section["log"] = dict(log)
    return section


def tracer_obs(tracer: Tracer, snapshot: Mapping) -> dict:
    """One process's ``obs`` section: :func:`obs_section` of its own
    registry snapshot plus its tracer's sampling rate and ring fill."""
    log = tracer.log.stats() if tracer.log is not None else None
    return dict(obs_section(snapshot, tracer.enabled, log),
                sample_rate=tracer.sample_rate, ring=len(tracer.ring))


def _serialize(response: PackageResponse) -> dict:
    """``response.to_dict()`` as the ``serialize`` stage; an error
    response's city is the client's unresolved name, so it is not tagged."""
    with stage("serialize", city=response.city if response.ok else None):
        return response.to_dict()


class UnknownSessionError(KeyError):
    """Raised when a session id does not name an open session."""


class NonFiniteProfileError(ValueError):
    """A wire profile holds a NaN or infinite score: a malformed
    payload (``bad_request``), not an unservable request."""


class StaleEpochError(RuntimeError):
    """A session pinned to an old city epoch could not be replayed.

    Raised when a live mutation moved the session's city to a newer
    epoch and re-applying the session's edit log against the new
    dataset no longer works (e.g. an edit references a closed POI).
    Maps to the structured ``stale_epoch`` wire code; the client
    recovers by closing the session and reopening against the current
    epoch.
    """


@dataclass
class _Session:
    """One open customization session and its serving context.

    ``origin`` is the request that opened the session: rebuilds must
    reuse its weights/k/seed, not the city defaults.  ``epoch`` pins
    the city version the session's state was derived from;
    ``edit_log`` records the applied :class:`CustomizeRequest`\\ s so
    the session can be deterministically replayed onto a newer epoch.

    ``base`` is the KFC build the edit log starts from (it keeps its
    bundle ``rows``), built at ``base_epoch`` from ``base_profile``:
    what a replay's rebuild would return while neither the city's rows
    nor the profile have changed since (see
    :meth:`PackageService._rereadable`).  A :meth:`PackageService.rebuild`
    makes its package the base and its request the origin; ``history``
    keeps the interactions recorded before it, which a replay's editor
    starts from.
    """

    id: str
    entry: CityEntry
    editor: CustomizationSession
    profile: GroupProfile
    origin: BuildRequest
    base: TravelPackage
    base_profile: GroupProfile
    base_epoch: int = 0
    epoch: int = 0
    edit_log: list[CustomizeRequest] = field(default_factory=list)
    history: list[Interaction] = field(default_factory=list)
    lock: Lock = field(default_factory=Lock)


class PackageService:
    """A multi-city Travel-Package serving engine.

    Args:
        registry: Per-city asset pool; a default registry (full-scale
            synthetic cities) is created when omitted.
        cache_capacity: LRU capacity of the package cache.
        max_sessions: Bound on concurrently open customization
            sessions.  Sessions are client-controlled server state, so
            a long-running service must cap them; beyond the bound
            :meth:`open_session` sheds with an ``overloaded`` error
            response rather than silently evicting a live session.
        obs: Observability configuration (an
            :class:`~repro.obs.ObsConfig`, or ``None`` for the default
            config: tracing on, no event log) for the service's tracer
            and :attr:`metrics` registry.  Every :meth:`dispatch` call
            runs under a trace activation, so the ``stage:*`` series and
            the slowest-trace ring populate without any client opt-in.
        window: Ring shape for windowed telemetry (counters, gauges and
            per-op latency histograms in fixed-interval windows); the
            :class:`~repro.obs.WindowConfig` defaults apply when
            omitted.
        slo: Targets for the ``health`` wire op; the
            :class:`~repro.obs.SLOConfig` defaults apply when omitted.
        shard: The shard index stamped onto every span, error and
            metrics record (``None`` outside a cluster).
    """

    def __init__(self, registry: CityRegistry | None = None,
                 cache_capacity: int = 256,
                 max_sessions: int = 1024,
                 obs: ObsConfig | None = None,
                 window: WindowConfig | None = None,
                 slo: SLOConfig | None = None,
                 shard: int | None = None) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self.max_sessions = max_sessions
        self.registry = registry or CityRegistry()
        self.tracer = (obs or ObsConfig()).make_tracer(shard=shard,
                                                       window=window)
        self.metrics = self.tracer.metrics
        self.cache = PackageCache(cache_capacity, windows=self.metrics)
        self.sampler = ResourceSampler(self.metrics)
        self.slo = SLOMonitor(slo)
        self._sessions: dict[str, _Session] = {}
        self._sessions_lock = Lock()
        self._session_ids = itertools.count(1)

    # -- building ----------------------------------------------------------

    def _resolve_profile(self, entry: CityEntry,
                         request: BuildRequest) -> GroupProfile:
        """The group profile a request names, validated against the
        city's fitted schema."""
        if request.profile is not None:
            profile = request.profile
            for cat in Category:
                vector = profile.vector(cat)
                expected = entry.schema.size(cat)
                got = vector.shape[0]
                if got != expected:
                    raise ValueError(
                        f"profile vector for {cat} has {got} dimensions, "
                        f"city {entry.name!r} expects {expected}"
                    )
                if not np.isfinite(vector).all():
                    raise NonFiniteProfileError(
                        f"profile vector for {cat} has a non-finite score"
                    )
            return profile
        return self.registry.group_profile(entry.name, request.group_spec)

    def _package_metrics(self, entry: CityEntry, package: TravelPackage,
                         profile: GroupProfile) -> dict:
        """The Section 4.2 quality measures reported with a response.

        A package fresh from ``entry.builder`` carries its bundle rows,
        and validity, cohesiveness and personalization read them from
        the builder's bundle; an edited package reads its POIs.
        """
        if package.rows is not None:
            valid, within_ci, personalization = bundle_metrics(
                package, entry.builder.arrays, profile)
        else:
            valid = (package.is_valid()
                     if package.query is not None else None)
            within_ci = package.raw_cohesiveness_sum()
            personalization = package.personalization(profile,
                                                      entry.item_index)
        return {
            "k": package.k,
            "representativity_km": package.representativity(),
            "within_ci_km": within_ci,
            "personalization": personalization,
            "valid": valid,
        }

    def build(self, request: BuildRequest) -> PackageResponse:
        """Serve one build request, through the cache.

        The cache stores the package, its quality metrics and the wire
        form of both (:class:`~repro.service.schema.Encoded`, encoded
        once on the miss), so a warm hit repeats none of the build-time
        numpy work and serializes nothing.
        """
        return self._serve_build(request)[0]

    def _serve_build(self, request: BuildRequest) -> tuple[
            PackageResponse, CityEntry | None, GroupProfile | None]:
        """The build path, also handing back the resolved (entry,
        profile) so :meth:`open_session` does not resolve twice."""
        start = time.perf_counter()
        try:
            entry = self.registry.entry(request.city)
            profile = self._resolve_profile(entry, request)
            key = cache_key(entry.name, profile, request.query,
                            request.weights, request.k, request.seed,
                            epoch=entry.epoch)
            hit = self.cache.get(key)
            cached = hit is not None
            if hit is None:
                with stage("assemble", city=entry.name), \
                        collect_assembly_counters() as scans:
                    package = entry.builder.build(
                        profile, request.query, k=request.k,
                        seed=request.seed, weights=request.weights,
                    )
                self._record_assembly(scans)
                with stage("package_metrics", city=entry.name):
                    package_metrics = self._package_metrics(entry, package,
                                                            profile)
                with stage("encode", city=entry.name):
                    wire = Encoded.spliced(package.to_dict(),
                                           package.to_json())
                    package_metrics = Encoded(package_metrics)
                self.cache.put(key, (package, wire, package_metrics))
            else:
                package, wire, package_metrics = hit
        except (KeyError, ValueError, RuntimeError) as exc:
            return (self._error_response(request.city, exc, start,
                                         request_id=request.request_id),
                    None, None)
        latency = time.perf_counter() - start
        self._record("build_cached" if cached else "build", latency)
        return (PackageResponse(
            city=entry.name, package=package, cached=cached,
            latency_ms=latency * 1000.0, metrics=package_metrics,
            request_id=request.request_id, package_wire=wire,
        ), entry, profile)

    def build_batch(self, requests: list[BuildRequest]) -> list[PackageResponse]:
        """Serve independent requests one after another, preserving order.

        Responses are positionally aligned with ``requests``; a failed
        request yields an error response in its slot.  The elements run
        on the caller's thread, so under a trace their stages land in
        the caller's activation.
        """
        start = time.perf_counter()
        responses = [self.build(r) for r in requests]
        self._record("build_batch", time.perf_counter() - start)
        return responses

    def close(self) -> None:
        """Release the tracer's event log, if file-backed."""
        self.tracer.close()

    @staticmethod
    def _classify(exc: Exception) -> str:
        """The :class:`ErrorCode` a failure maps to on the wire."""
        if isinstance(exc, StaleEpochError):
            return ErrorCode.STALE_EPOCH.value
        if isinstance(exc, UnknownSessionError):
            return ErrorCode.UNKNOWN_SESSION.value
        if isinstance(exc, NonFiniteProfileError):
            return ErrorCode.BAD_REQUEST.value
        if isinstance(exc, KeyError):
            return ErrorCode.NOT_FOUND.value
        if isinstance(exc, (ValueError, StopIteration, IndexError, TypeError)):
            return ErrorCode.INVALID.value
        return ErrorCode.FAILED.value

    def _error_response(self, city: str, exc: Exception, start: float,
                        request_id: str | None = None,
                        session_id: str | None = None) -> PackageResponse:
        latency = time.perf_counter() - start
        self._record("error", latency)
        message = str(exc) or exc.__class__.__name__
        code = self._classify(exc)
        self.tracer.error(message, code=code, city=city)
        return PackageResponse(city=city, error=message, code=code,
                               latency_ms=latency * 1000.0,
                               request_id=request_id, session_id=session_id)

    # -- customization sessions ---------------------------------------------

    def _sessions_full_response(self, request: BuildRequest) -> PackageResponse:
        return PackageResponse(
            city=request.city,
            error=f"session table full ({self.max_sessions} open); "
                  "close a session or retry later",
            code=ErrorCode.OVERLOADED.value,
            request_id=request.request_id,
        )

    def open_session(self, request: BuildRequest) -> PackageResponse:
        """Build a package (through the cache) and open a customization
        session on it.  The response carries the new ``session_id``."""
        # Cheap unlocked pre-check so a session flood against a full
        # table sheds before paying the build; re-validated under the
        # lock below.
        if self.open_sessions >= self.max_sessions:
            return self._sessions_full_response(request)
        response, entry, profile = self._serve_build(request)
        if not response.ok:
            return response
        weights = request.weights or entry.builder.weights
        editor = CustomizationSession(
            package=response.package, dataset=entry.dataset, profile=profile,
            item_index=entry.item_index, beta=weights.beta,
            gamma=weights.gamma, arrays=entry.arrays,
        )
        session_id = f"s{next(self._session_ids)}"
        with self._sessions_lock:
            if len(self._sessions) >= self.max_sessions:
                return self._sessions_full_response(request)
            self._sessions[session_id] = _Session(
                id=session_id, entry=entry, editor=editor, profile=profile,
                origin=request, base=response.package, base_profile=profile,
                base_epoch=entry.epoch, epoch=entry.epoch,
            )
        return replace(response, session_id=session_id)

    def _session(self, session_id: str) -> _Session:
        with self._sessions_lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise UnknownSessionError(
                    f"no open session {session_id!r}"
                ) from None

    def apply(self, request: CustomizeRequest) -> PackageResponse:
        """Apply one customization operator inside a session and return
        the session's current package."""
        start = time.perf_counter()
        try:
            session = self._session(request.session_id)
        except UnknownSessionError as exc:
            return self._error_response("", exc, start,
                                        request_id=request.request_id,
                                        session_id=request.session_id)
        entry = session.entry
        try:
            with session.lock, collect_assembly_counters() as scans:
                self._ensure_fresh(session)
                entry = session.entry  # replay may have advanced it
                self._dispatch(session, request)
                session.edit_log.append(request)
                package = session.editor.package
            self._record_assembly(scans)
        except (KeyError, ValueError, StopIteration, IndexError,
                StaleEpochError) as exc:
            return self._error_response(entry.name, exc, start,
                                        request_id=request.request_id,
                                        session_id=request.session_id)
        latency = time.perf_counter() - start
        self._record("customize", latency)
        return PackageResponse(
            city=entry.name, package=package, latency_ms=latency * 1000.0,
            metrics=self._package_metrics(entry, package, session.profile),
            session_id=request.session_id, request_id=request.request_id,
        )

    def _ensure_fresh(self, session: _Session) -> None:
        """Reconcile a session with its city's current epoch (caller
        holds ``session.lock``).

        No-op while the epochs match.  After a live mutation, the
        session's package/editor were derived from a dataset that no
        longer exists; serving from them would be a stale read.  The
        session is *replayed*: its origin request is rebuilt against
        the current entry (with the session's possibly-refined profile)
        and the logged edits are re-applied in order.  If any edit no
        longer applies -- e.g. it references a POI that has since
        closed -- the session state is left untouched and
        :class:`StaleEpochError` propagates as the structured
        ``stale_epoch`` wire code.

        The rebuild is skipped when :meth:`_rereadable` proves it would
        return the session's base package with current costs: the base's
        CIs are re-read from the current dataset (same POI ids, order,
        centroids and rows) and the edits replayed over them.  That
        holds only across reprices, for a query without a finite budget
        and an unrefined profile: a build without a budget never reads
        a cost, while a close or an add moves the rows and geometry
        every build reads, a budget makes the picks depend on prices,
        and a refined profile changes the personalization term.

        Freshness here is *snapshot* semantics, not a transaction:
        this check is not serialized against
        :meth:`~repro.service.registry.CityRegistry.mutate`, so a
        request racing a mutation commit may be served from the epoch
        that was current when the check ran -- one last pre-bump read,
        exactly as if the request had arrived a moment earlier.  What
        the epoch machinery rules out is *structural* staleness: state
        derived from one epoch's dataset being matched against
        another's.
        """
        current = self.registry.entry(session.entry.name)
        if current.epoch == session.epoch:
            return
        reread = self._rereadable(session, current)
        if reread:
            entry, profile, base = current, session.profile, session.base
            package = TravelPackage(
                composite_items(entry.dataset, entry.arrays,
                                base.centroids(), base.rows),
                query=base.query, rows=base.rows)
        else:
            request = replace(session.origin, profile=session.profile,
                              group_spec=None)
            response, entry, profile = self._serve_build(request)
            if not response.ok or entry is None:
                self._record_replay(ok=False)
                raise StaleEpochError(
                    f"session {session.id}: rebuild against epoch "
                    f"{current.epoch} failed: {response.error}"
                )
            package = response.package
        weights = session.origin.weights or entry.builder.weights
        editor = CustomizationSession(
            package=package, dataset=entry.dataset, profile=profile,
            item_index=entry.item_index, beta=weights.beta,
            gamma=weights.gamma, arrays=entry.arrays,
            interactions=list(session.history),
        )
        try:
            for edit in session.edit_log:
                self._apply_edit(editor, entry.dataset, edit)
        except (KeyError, ValueError, StopIteration, IndexError) as exc:
            self._record_replay(ok=False)
            raise StaleEpochError(
                f"session {session.id}: logged edit no longer applies at "
                f"epoch {entry.epoch}: {exc}"
            ) from None
        if not reread:
            session.base, session.base_profile = package, profile
            session.base_epoch = entry.epoch
        session.entry = entry
        session.epoch = entry.epoch
        session.editor = editor
        session.profile = profile
        self._record_replay(ok=True)

    @staticmethod
    def _rereadable(session: _Session, current: CityEntry) -> bool:
        """Whether rebuilding ``session``'s origin request against
        ``current`` would return its base package, costs aside: every
        epoch since the base was built only repriced (the city's rows,
        coordinates and item vectors are the base's), the query has no
        finite budget (the build read no cost) and the session's profile
        is the one the base was built from."""
        return (current.layout_epoch <= session.base_epoch
                and not session.origin.query.has_budget
                and session.profile is session.base_profile)

    def _dispatch(self, session: _Session, request: CustomizeRequest) -> None:
        self._apply_edit(session.editor, session.entry.dataset, request)

    def _apply_edit(self, editor: CustomizationSession, dataset,
                    request: CustomizeRequest) -> None:
        if request.op is CustomizeOp.REMOVE:
            if request.poi_id not in editor.package[request.ci_index]:
                raise KeyError(
                    f"POI {request.poi_id} is not in CI {request.ci_index}"
                )
            editor.remove(request.ci_index, request.poi_id,
                          actor=request.actor)
        elif request.op is CustomizeOp.ADD:
            editor.add(request.ci_index, dataset[request.add_poi_id],
                       actor=request.actor)
        elif request.op is CustomizeOp.REPLACE:
            if request.poi_id not in editor.package[request.ci_index]:
                raise KeyError(
                    f"POI {request.poi_id} is not in CI {request.ci_index}"
                )
            replacement = (dataset[request.replacement_id]
                           if request.replacement_id is not None else None)
            editor.replace(request.ci_index, request.poi_id,
                           replacement=replacement, actor=request.actor)
        elif request.op is CustomizeOp.GENERATE:
            editor.generate(request.rectangle(), actor=request.actor)
        elif request.op is CustomizeOp.DELETE_CI:
            editor.delete_composite_item(request.ci_index,
                                         actor=request.actor)
        else:  # pragma: no cover - CustomizeRequest validates the op
            raise ValueError(f"unsupported operator {request.op!r}")

    def suggest_additions(self, session_id: str, ci_index: int, k: int = 5,
                          category: Category | str | None = None,
                          poi_type: str | None = None) -> list[POI]:
        """ADD candidates near a CI's centroid (the UI's pick list)."""
        session = self._session(session_id)
        with session.lock:
            self._ensure_fresh(session)
            return session.editor.suggest_additions(
                ci_index, k=k, category=category, poi_type=poi_type,
            )

    def interactions(self, session_id: str) -> list[Interaction]:
        """A session's interaction log so far (a copy)."""
        session = self._session(session_id)
        with session.lock:
            return list(session.editor.interactions)

    def refine(self, session_id: str) -> GroupProfile:
        """Batch-refine the session's group profile from its interaction
        log (Section 3.3).  The refined profile becomes the session's
        profile, so subsequent GENERATE operators and
        :meth:`rebuild` calls are personalized by it."""
        session = self._session(session_id)
        start = time.perf_counter()
        try:
            with session.lock, stage("refine", city=session.entry.name):
                self._ensure_fresh(session)
                refined = refine_batch(session.profile,
                                       session.editor.interactions,
                                       session.entry.item_index)
                session.profile = refined
                session.editor.profile = refined
        finally:
            self._record("refine", time.perf_counter() - start)
        return refined

    def rebuild(self, session_id: str,
                query: GroupQuery | None = None) -> PackageResponse:
        """Build a fresh package from the session's (possibly refined)
        profile and swap it into the session.

        On success the rebuild becomes the session's base: its request
        replaces the origin and the edit log restarts empty, so a replay
        onto a newer epoch starts from the rebuilt package.  The
        interactions so far stay with the session, for refinement."""
        session = self._session(session_id)
        with session.lock:
            self._ensure_fresh(session)
            request = BuildRequest(
                city=session.entry.name,
                query=query or session.editor.package.query or DEFAULT_QUERY,
                profile=session.profile,
                weights=session.origin.weights,
                k=session.origin.k,
                seed=session.origin.seed,
            )
            response, entry, profile = self._serve_build(request)
            if response.ok:
                # The rebuild is the session's new base: a later replay
                # rebuilds (or re-reads) it, not the opening request,
                # and re-applies only the edits made since.
                session.editor.package = response.package
                session.origin = request
                session.base, session.base_profile = response.package, profile
                session.base_epoch = entry.epoch
                session.history = list(session.editor.interactions)
                session.edit_log = []
        return replace(response, session_id=session_id)

    def close_session(self, session_id: str) -> list[Interaction]:
        """Close a session, returning its final interaction log."""
        with self._sessions_lock:
            try:
                session = self._sessions.pop(session_id)
            except KeyError:
                raise UnknownSessionError(
                    f"no open session {session_id!r}"
                ) from None
        return list(session.editor.interactions)

    @property
    def open_sessions(self) -> int:
        """Number of currently open customization sessions."""
        with self._sessions_lock:
            return len(self._sessions)

    # -- wire dispatch -------------------------------------------------------

    #: Operations :meth:`dispatch` understands, mapped to handlers by name.
    DISPATCH_OPS = ("ping", "build", "batch", "open_session", "customize",
                    "close_session", "mutate", "warmup", "stats", "trace",
                    "health")

    def dispatch(self, op: str, payload: dict) -> dict:
        """Serve one wire-format operation: plain dicts in, plain dicts
        out (a cached package and its metrics as read-only
        :class:`~repro.service.schema.Encoded` dicts).

        This is the process-boundary entry point: the shard workers and
        the NDJSON server both funnel every request through it, so
        nothing but picklable/JSON-able dicts ever crosses an executor.
        Malformed payloads come back as ``bad_request`` error dicts, not
        exceptions -- a worker process must survive any input.

        A ``_trace`` key in the payload is the upstream trace context
        (see :class:`~repro.obs.TraceContext`): the whole operation
        runs as this process's portion of that trace, per-stage latency
        lands in the ``stage:*`` series (queue wait included, derived
        from the sender's hand-off stamp), and the response is stamped
        with the ``trace_id``.  Without one, the service roots a trace
        of its own, so direct dispatch callers get the same stage
        accounting.
        """
        ctx = None
        if isinstance(payload, dict) and "_trace" in payload:
            ctx = TraceContext.from_wire(payload.pop("_trace"))
        with self.tracer.activate(f"serve:{op}", ctx):
            result = self._dispatch_op(op, payload)
        if ctx is not None and isinstance(result, dict):
            # Echo the id only for requests that arrived with a wire
            # context; self-rooted traces stay out of the response so
            # direct dispatch callers see unchanged payloads.
            result["trace_id"] = ctx.trace_id
        return result

    def _dispatch_op(self, op: str, payload: dict) -> dict:
        try:
            if op == "ping":
                return {"ok": True}
            if op == "build":
                return _serialize(self.build(BuildRequest.from_dict(payload)))
            if op == "batch":
                if len(payload["requests"]) > MAX_BATCH_REQUESTS:
                    return PackageResponse(
                        city="",
                        error=f"batch of {len(payload['requests'])} exceeds "
                              f"the {MAX_BATCH_REQUESTS}-request limit",
                        code=ErrorCode.BAD_REQUEST.value,
                    ).to_dict()
                slots: list[dict | None] = [None] * len(payload["requests"])
                parsed: list[tuple[int, BuildRequest]] = []
                for index, raw in enumerate(payload["requests"]):
                    try:
                        parsed.append((index, BuildRequest.from_dict(raw)))
                    except (KeyError, TypeError, ValueError,
                            AttributeError, OverflowError) as exc:
                        # One malformed element errors its own slot; it
                        # must not take the rest of the batch with it.
                        slots[index] = PackageResponse(
                            city="", error=f"bad batch element: {exc}",
                            code=ErrorCode.BAD_REQUEST.value,
                            request_id=(raw.get("request_id")
                                        if isinstance(raw, dict) else None),
                        ).to_dict()
                served = self.build_batch([request for _, request in parsed])
                with stage("serialize"):
                    for (index, _), response in zip(parsed, served):
                        slots[index] = response.to_dict()
                return {"responses": slots}
            if op == "open_session":
                return _serialize(
                    self.open_session(BuildRequest.from_dict(payload)))
            if op == "customize":
                return _serialize(
                    self.apply(CustomizeRequest.from_dict(payload)))
            if op == "close_session":
                session_id = str(payload["session_id"])
                try:
                    log = self.close_session(session_id)
                except UnknownSessionError as exc:
                    return PackageResponse(
                        city="", error=str(exc), code=self._classify(exc),
                        session_id=session_id,
                        request_id=payload.get("request_id"),
                    ).to_dict()
                return {"session_id": session_id,
                        "interactions": [i.to_dict() for i in log],
                        "request_id": payload.get("request_id")}
            if op == "mutate":
                return self._serve_mutate(payload)
            if op == "warmup":
                failed: dict[str, str] = {}
                for city in [str(c) for c in payload.get("cities", ())]:
                    try:
                        self.registry.entry(city)
                    except Exception as exc:
                        # One bad name must neither abort the remaining
                        # cities nor hide: report it alongside the wins.
                        failed[city] = str(exc) or exc.__class__.__name__
                result: dict = {"cities": sorted(self.registry.loaded())}
                if failed:
                    result["failed"] = failed
                return result
            if op == "stats":
                return self.stats()
            if op == "health":
                return self.health()
            if op == "trace":
                return {"traces": self.tracer.slowest_traces(
                    trace_limit(payload))}
            return PackageResponse(
                city="", error=f"unknown operation {op!r}",
                code=ErrorCode.BAD_REQUEST.value,
            ).to_dict()
        except (KeyError, TypeError, ValueError, AttributeError,
                OverflowError) as exc:
            return PackageResponse(
                city="", error=f"bad {op} payload: {exc}",
                code=ErrorCode.BAD_REQUEST.value,
                request_id=(payload.get("request_id")
                            if isinstance(payload, dict) else None),
            ).to_dict()

    # -- live mutations ------------------------------------------------------

    def _serve_mutate(self, payload: dict) -> dict:
        """The ``mutate`` wire op: apply one live mutation to a city.

        The payload is ``{"city": ..., "mutation": {<Mutation wire
        form>}, "request_id": ...}``; the response echoes the registry's
        receipt (new ``epoch``, log ``seq``, ``patch_ms``, ``n_pois``);
        with a store attached the mutation is also appended to the
        city's journal.  The city's cache entries keyed on older epochs
        are purged at the commit.  Failures come back as error responses: an
        unknown city is ``not_found``, a malformed or inapplicable
        mutation ``invalid``.
        """
        start = time.perf_counter()
        city = str(payload.get("city", ""))
        try:
            if not city:
                raise ValueError("a mutate request needs a city")
            mutation = mutation_from_dict(payload.get("mutation"))
            # The registry resolves names case-insensitively; tag the
            # resolved name so case variants share one city series.
            with stage("mutate", city=city.lower()):
                result = self.registry.mutate(city, mutation)
                self.cache.purge(result["city"], result["epoch"])
        except (KeyError, ValueError, RuntimeError) as exc:
            return self._error_response(
                city, exc, start, request_id=payload.get("request_id"),
            ).to_dict()
        latency = time.perf_counter() - start
        self._record("mutate", latency)
        self._record_mutation(result)
        return dict(result, latency_ms=latency * 1000.0,
                    request_id=payload.get("request_id"))

    def _record_mutation(self, result: dict) -> None:
        """Count one applied mutation under the ``live.*`` series."""
        self.metrics.counter_inc("live.mutations_applied")
        # observe() takes seconds; patch_ms is the registry's receipt.
        self.metrics.observe("live.patch_ms", result["patch_ms"] / 1000.0)

    def _record_replay(self, ok: bool) -> None:
        self.metrics.counter_inc(
            "live.sessions_replayed" if ok else "live.sessions_stale")

    # -- observability -------------------------------------------------------

    def _record(self, op: str, seconds: float) -> None:
        """Count one completed operation of ``seconds`` wall clock."""
        self.metrics.observe(f"latency:{op}", seconds)
        self.metrics.counter_inc("requests")
        if op == "error":
            self.metrics.counter_inc("errors")

    def _record_assembly(self, scans: AssemblyCounters) -> None:
        """Count one build/customize call's assembly-scan work."""
        if not scans.rows_total:
            return  # cache hit or scan-free edit: no assembly ran
        self.metrics.counter_inc("assembly.rows_scored", scans.rows_scored)
        self.metrics.counter_inc("assembly.rows_total", scans.rows_total)

    def _sample_gauges(self) -> None:
        """Refresh the service-level gauges (pull-driven: a stats or
        health poll is the sampling clock -- no background thread)."""
        metrics = self.metrics
        metrics.gauge_set("sessions_open", self.open_sessions)
        metrics.gauge_set("cache_size", len(self.cache))
        metrics.gauge_set("store_resident_bytes",
                          self.registry.total_bytes())
        self.sampler.sample()

    def stats(self) -> dict:
        """One JSON-ready snapshot of the service's counters."""
        self._sample_gauges()
        snapshot = self.metrics.snapshot()
        sections = stats_sections(snapshot)
        return {
            "cities": list(self.registry.loaded()),
            "open_sessions": self.open_sessions,
            "cache": {"size": len(self.cache),
                      "capacity": self.cache.capacity, **sections["cache"]},
            "registry": self.registry.stats(),
            "assembly": sections["assembly"],
            "live": sections["live"],
            "metrics": sections["metrics"],
            "obs": tracer_obs(self.tracer, snapshot),
        }

    def health(self) -> dict:
        """The SLO verdict over this service's rolling windows, plus
        the windowed snapshot it was computed from (the shard layer
        merges the snapshots exactly and re-evaluates cluster-wide)."""
        self._sample_gauges()
        snapshot = self.metrics.snapshot()
        return {"health": self.slo.evaluate(snapshot),
                "windows": snapshot}
