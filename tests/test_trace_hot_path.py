"""The warm-hit hot path: lazy spans, one registry flush per request,
nothing derived twice.

A finished trace is turned into span dicts only if the slowest ring
admits it or an event log is attached, so the ring's retained traces
must equal those of a ring offered *every* trace
(:mod:`ring_oracle`).  A request's stage histograms, trace counters,
counts and latencies reach each process's registry under one hold of
its lock; a spy on the registries' locks pins that for a warm hit
through the NDJSON front-end.  Spies on the profile hash and the query
and spec constructors pin that a repeated warm hit hashes no profile
and parses no query or spec: each profile keeps its fingerprint, and
the wire layer its parsed values.  The KFC builder times its FCM
seeding and recentering as stages of the active trace.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from types import SimpleNamespace
from unittest import mock

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import GroupQuery
from repro.data.poi import CATEGORIES
from repro.obs import MetricsRegistry, Tracer, stage
from repro.obs.check import check_log_lines
from repro.profiles.group import GroupProfile
from repro.service import (
    BuildRequest,
    CityRegistry,
    GroupSpec,
    PackageServer,
    PackageService,
    ShardCluster,
    ShardConfig,
    profile_fingerprint,
)
from repro.service.schema import _wire_query, _wire_spec
from ring_oracle import OracleSlowTraceRing


class _Clock:
    """A settable stand-in for ``perf_counter``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _ListLog:
    """The slice of :class:`~repro.obs.EventLog` a tracer writes to."""

    def __init__(self) -> None:
        self.records: list[tuple[str, dict]] = []

    def write(self, kind: str, record: dict) -> None:
        self.records.append((kind, record))


#: Root durations drawn from a handful of values, so ties are common.
durations = st.lists(st.sampled_from([0.001, 0.002, 0.0025, 0.004, 0.008]),
                     max_size=40)


@settings(max_examples=200, deadline=None)
@given(durations=durations, capacity=st.integers(1, 5),
       logged=st.booleans(), staged=st.booleans())
def test_lazy_ring_matches_push_then_pop(durations, capacity, logged,
                                         staged):
    log = _ListLog() if logged else None
    tracer = Tracer(slowest=capacity, metrics=MetricsRegistry(log=log))
    oracle = OracleSlowTraceRing(capacity)
    clock = _Clock()
    with mock.patch("repro.obs.trace.perf_counter", clock):
        for seconds in durations:
            clock.now = 0.0
            with tracer.activate("serve:build") as act:
                if staged:
                    with stage("assemble", city="paris"):
                        pass
                clock.now = seconds
            oracle.offer({"trace_id": act.trace_id,
                          "duration_ms": seconds * 1000.0})
    kept = tracer.slowest_traces()
    assert ([(t["trace_id"], t["duration_ms"]) for t in kept]
            == [(t["trace_id"], t["duration_ms"]) for t in oracle.slowest()])
    spans_per_trace = 2 if staged else 1
    for trace in kept:
        assert len(trace["spans"]) == spans_per_trace
        assert trace["spans"][-1]["duration_ms"] == trace["duration_ms"]
    if logged:
        # A logged tracer builds every trace's spans, kept or not.
        spans = [record for kind, record in log.records if kind == "span"]
        assert len(spans) == spans_per_trace * len(durations)
        summary, problems = check_log_lines(
            json.dumps(dict(span, kind="span")) for span in spans)
        assert problems == []
        assert summary["traces"] == len(durations)


class _FlushSpy:
    """Records, per hold of a registry's lock, the series that changed
    under it -- every recording reaches the registry under that lock,
    whether it rode on an activation or not."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.calls: list[set[str]] = []
        lock = registry.lock
        spy = self

        class _Spied:
            def __enter__(self):
                lock.acquire()
                self.before = _state(registry)

            def __exit__(self, *exc):
                after = _state(registry)
                spy.calls.append({name for name in after
                                  if after[name] != self.before.get(name)})
                lock.release()

        registry.lock = _Spied()


def _state(registry: MetricsRegistry) -> dict[str, int]:
    """Each series' all-time count (events for a counter)."""
    return {name: series.total if series.kind == "counter"
            else series.total.count
            for name, series in registry._series.items()
            if series.total is not None}


def test_warm_hit_flushes_each_registry_once(app):
    registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
    registry.register(app.dataset, app.item_index, name="paris")
    services: list[PackageService] = []

    def factory(shard_id: int) -> PackageService:
        services.append(PackageService(registry, cache_capacity=8,
                                       shard=shard_id))
        return services[-1]

    line = json.dumps({"op": "build", "id": 1, "request": {
        "city": "paris", "group_spec": {"size": 4, "seed": 9}}})
    cluster = ShardCluster(shards=1, config=ShardConfig(),
                           cities=["paris"], use_processes=False,
                           service_factory=factory)
    server = PackageServer(cluster)
    try:
        cold = asyncio.run(server.handle_line(line))
        assert cold["error"] is None and not cold["cached"]
        front, shard = (_FlushSpy(server.tracer.metrics),
                        _FlushSpy(services[0].tracer.metrics))
        warm = asyncio.run(server.handle_line(line))
        assert warm["error"] is None and warm["cached"]
    finally:
        cluster.shutdown()
        server.tracer.close()
    # One call per registry carries the whole request: stages, trace
    # counts, and the counters and latencies recorded along the way.
    assert front.calls == [{"stage:request:build", "stage:dispatch",
                            "latency:request", "obs.traces", "obs.spans"}]
    assert shard.calls == [{"stage:serve:build", "stage:queue_wait",
                            "stage:cache_lookup", "stage:serialize",
                            "stage_city:paris", "latency:build_cached",
                            "cache_hits", "obs.traces", "obs.spans"}]
    assert warm["trace_id"]


def test_a_repeated_warm_hit_hashes_and_parses_nothing(app):
    registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
    registry.register(app.dataset, app.item_index, name="paris")
    line = json.dumps({"op": "build", "id": 1, "request": {
        "city": "paris", "group_spec": {"size": 4, "seed": 23},
        "query": {"counts": {"acco": 1, "trans": 1, "rest": 1, "attr": 2},
                  "budget": None}}})
    cluster = ShardCluster(
        shards=1, config=ShardConfig(), cities=["paris"],
        use_processes=False,
        service_factory=lambda i: PackageService(registry, cache_capacity=8,
                                                 shard=i))
    server = PackageServer(cluster)
    sha256 = mock.Mock(wraps=hashlib.sha256)
    counts = []
    _wire_query.clear()  # so the miss parses, whatever ran before
    _wire_spec.clear()
    try:
        with mock.patch("repro.profiles.group.hashlib",
                        SimpleNamespace(sha256=sha256)), \
                mock.patch.object(GroupQuery, "_check", autospec=True,
                                  side_effect=GroupQuery._check) as queries, \
                mock.patch.object(GroupSpec, "__post_init__", autospec=True,
                                  side_effect=GroupSpec.__post_init__) as specs:
            replies = []
            for _ in range(3):
                replies.append(asyncio.run(server.handle_line(line)))
                counts.append((sha256.call_count, queries.call_count,
                               specs.call_count))
    finally:
        cluster.shutdown()
        server.tracer.close()
    assert [reply["cached"] for reply in replies] == [False, True, True]
    assert all(reply["error"] is None for reply in replies)
    # The miss hashes the resolved profile once and parses the query
    # and spec once; neither warm hit repeats any of it.
    assert counts[0] == (1, 1, 1)
    assert counts[2] == counts[1] == counts[0]


def _copying_fingerprint(profile: GroupProfile) -> str:
    """The fingerprint as computed from defensive vector copies."""
    digest = hashlib.sha256()
    for cat in CATEGORIES:
        digest.update(cat.value.encode())
        digest.update(np.ascontiguousarray(
            profile.vector(cat), dtype=np.float64).tobytes())
    return digest.hexdigest()


def test_equal_vectors_fingerprint_equally_by_any_route(app, uniform_group):
    consensus = uniform_group.profile()
    members = np.vstack([m.concatenated() for m in uniform_group.members])
    routes = {
        "from_members": GroupProfile.from_members(consensus.schema, members),
        "wire": GroupProfile.from_dict(json.loads(json.dumps(
            consensus.to_dict()))),
        "updated": consensus.updated("attr", consensus.vector("attr")),
        "vectors": GroupProfile(consensus.schema, {
            cat: list(consensus.vector(cat)) for cat in CATEGORIES}),
    }
    want = _copying_fingerprint(consensus)
    assert profile_fingerprint(consensus) == consensus.fingerprint() == want
    for route, profile in routes.items():
        assert profile is not consensus
        assert profile_fingerprint(profile) == want, route


def test_a_refined_profile_gets_a_new_fingerprint(app):
    registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
    registry.register(app.dataset, app.item_index, name="paris")
    service = PackageService(registry, cache_capacity=4)
    try:
        opened = service.open_session(BuildRequest(
            city="paris", group_spec=GroupSpec(size=4, seed=29)))
        session = opened.session_id
        profile = registry.group_profile("paris", GroupSpec(size=4, seed=29))
        before = profile.fingerprint()
        first = opened.package[0].pois[0].id
        assert service.dispatch("customize", {
            "session_id": session, "op": "remove", "ci_index": 0,
            "poi_id": first})["error"] is None
        refined = service.refine(session)
    finally:
        service.close()
    assert refined.fingerprint() != before
    assert refined.fingerprint() == _copying_fingerprint(refined)
    # The kept digest is the source profile's content's, still.
    assert profile.fingerprint() == before == _copying_fingerprint(profile)


def test_traced_cold_build_times_fcm_seed_and_recenter(app):
    registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
    registry.register(app.dataset, app.item_index, name="paris")
    service = PackageService(registry, cache_capacity=4)
    try:
        response = service.dispatch("build", {
            "city": "paris", "group_spec": {"size": 4, "seed": 13}})
        assert response["error"] is None
        stages = service.stats()["obs"]["stages"]
        traces = service.tracer.slowest_traces()
    finally:
        service.close()
    assert stages["fcm_seed"]["count"] == 1
    assert stages["recenter"]["count"] >= 1
    trace = next(t for t in traces if t["name"] == "serve:build")
    spans = trace["spans"]
    by_id = {span["span_id"]: span for span in spans}
    names = [span["name"] for span in spans]
    assert names.count("fcm_seed") == 1
    assert names.count("recenter") == stages["recenter"]["count"]
    for span in spans:
        if span["name"] in ("fcm_seed", "recenter"):
            assert by_id[span["parent_id"]]["name"] == "assemble"
    summary, problems = check_log_lines(
        json.dumps(dict(span, kind="span")) for span in spans)
    assert problems == [] and summary["traces"] == 1
