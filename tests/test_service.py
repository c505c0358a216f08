"""The serving engine: cache behaviour, batching, sessions, wire round
trips of requests/responses, and the service CLI's entry point."""

import json

import numpy as np
import pytest

from repro.core.objective import ObjectiveWeights
from repro.core.query import GroupQuery
from repro.data.poi import Category
from repro.service import (
    BuildRequest,
    CityRegistry,
    CustomizeOp,
    CustomizeRequest,
    GroupSpec,
    PackageCache,
    PackageResponse,
    PackageService,
    UnknownSessionError,
    cache_key,
    profile_fingerprint,
)
from repro.service.__main__ import main


@pytest.fixture(scope="module")
def registry(app):
    """A registry serving the session's small Paris via its pre-fitted
    assets (no second LDA fit)."""
    registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
    registry.register(app.dataset, app.item_index, name="paris")
    return registry


@pytest.fixture()
def service(registry):
    """A fresh service per test: clean cache, metrics and sessions over
    the shared registry."""
    return PackageService(registry, cache_capacity=32)


@pytest.fixture(scope="module")
def spec_request():
    return BuildRequest(city="paris",
                        group_spec=GroupSpec(size=4, uniform=True, seed=5))


class TestBuild:
    def test_build_returns_valid_package(self, service, spec_request):
        response = service.build(spec_request)
        assert response.ok
        assert response.city == "paris"
        assert not response.cached
        assert response.package.is_valid()
        assert response.metrics["valid"] is True
        assert response.latency_ms > 0

    def test_count_above_the_candidate_pool_fills_every_slot(self, service):
        """70 attractions against the registry's 60-row candidate pool:
        the pool grows to the count, so every CI carries all 70 and the
        package is valid (it used to carry 60 and report invalid)."""
        request = BuildRequest(
            city="paris", group_spec=GroupSpec(size=3, seed=1),
            query=GroupQuery.of(acco=1, trans=1, rest=1, attr=70),
        )
        response = service.build(request)
        assert response.ok
        assert response.metrics["valid"] is True
        for ci in response.package.composite_items:
            assert ci.category_counts()[Category.ATTRACTION] == 70

    def test_repeat_request_hits_cache(self, service, spec_request):
        cold = service.build(spec_request)
        warm = service.build(spec_request)
        assert not cold.cached and warm.cached
        assert warm.package is cold.package
        stats = service.stats()
        assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1
        ops = stats["metrics"]["operations"]
        assert ops["build"]["count"] == ops["build_cached"]["count"] == 1

    def test_explicit_profile_roundtripped_still_hits_cache(self, service,
                                                            uniform_group):
        profile = uniform_group.profile()
        request = BuildRequest(city="paris", profile=profile)
        service.build(request)
        rehydrated = type(profile).from_dict(
            json.loads(json.dumps(profile.to_dict()))
        )
        warm = service.build(BuildRequest(city="paris", profile=rehydrated))
        assert warm.cached

    def test_different_inputs_miss(self, service, spec_request):
        service.build(spec_request)
        variants = [
            BuildRequest(city="paris", group_spec=GroupSpec(size=4, seed=6)),
            BuildRequest(city="paris", group_spec=spec_request.group_spec,
                         query=GroupQuery.of(acco=1, rest=1, attr=1)),
            BuildRequest(city="paris", group_spec=spec_request.group_spec,
                         seed=9),
            BuildRequest(city="paris", group_spec=spec_request.group_spec,
                         k=3),
            BuildRequest(city="paris", group_spec=spec_request.group_spec,
                         weights=ObjectiveWeights(gamma=5.0)),
        ]
        for request in variants:
            assert not service.build(request).cached
        assert service.stats()["cache"]["hits"] == 0

    def test_infeasible_query_yields_error_response(self, service):
        request = BuildRequest(
            city="paris", group_spec=GroupSpec(size=3, seed=1),
            query=GroupQuery.of(acco=500),
        )
        response = service.build(request)
        assert not response.ok
        assert response.package is None
        assert service.stats()["metrics"]["operations"]["error"]["count"] == 1

    def test_unknown_city_yields_error_response(self, service, spec_request):
        response = service.build(
            BuildRequest(city="atlantis", group_spec=spec_request.group_spec)
        )
        assert not response.ok
        assert "atlantis" in response.error

    def test_profile_schema_mismatch_rejected(self, service):
        from repro.data.poi import CATEGORIES
        from repro.profiles.group import GroupProfile
        from repro.profiles.schema import ProfileSchema

        wrong_schema = ProfileSchema.with_topic_counts(3, 3)
        profile = GroupProfile(wrong_schema, {
            cat: np.ones(wrong_schema.size(cat)) for cat in CATEGORIES
        })
        response = service.build(BuildRequest(city="paris", profile=profile))
        assert not response.ok
        assert "dimensions" in response.error

    def test_request_validation(self):
        with pytest.raises(ValueError):
            BuildRequest(city="paris")  # neither profile nor spec
        with pytest.raises(ValueError):
            BuildRequest(city="", group_spec=GroupSpec())


class TestBatch:
    def test_batch_matches_sequential(self, registry, spec_request):
        requests = [
            BuildRequest(city="paris", group_spec=GroupSpec(size=4, seed=s),
                         request_id=f"r{s}")
            for s in range(6)
        ]
        sequential = PackageService(registry, cache_capacity=32)
        batched = PackageService(registry, cache_capacity=32)
        expected = [sequential.build(r) for r in requests]
        got = batched.build_batch(requests)

        assert [r.request_id for r in got] == [r.request_id for r in requests]
        for a, b in zip(expected, got):
            assert b.ok
            assert ([ci.poi_ids for ci in a.package]
                    == [ci.poi_ids for ci in b.package])

    def test_batch_isolates_failures(self, service, spec_request):
        requests = [
            spec_request,
            BuildRequest(city="paris", group_spec=spec_request.group_spec,
                         query=GroupQuery.of(trans=999)),
            spec_request,
        ]
        responses = service.build_batch(requests)
        assert [r.ok for r in responses] == [True, False, True]

    def test_single_request_batch(self, service, spec_request):
        responses = service.build_batch([spec_request])
        assert len(responses) == 1 and responses[0].ok

    def test_served_batch_stages_land_in_the_batch_trace(self, service):
        """A batch's elements run inside the ``serve:batch`` activation,
        so each element's cache lookup (and, on a miss, its assembly)
        is a span of the batch's one trace."""
        specs = [{"size": 4, "seed": seed} for seed in (31, 32, 33, 34)]
        service.build(BuildRequest.from_dict({"city": "paris",
                                              "group_spec": specs[0]}))
        misses = len(specs) - 1

        def assembled() -> int:
            stages = service.stats()["obs"]["stages"]
            return stages.get("assemble", {}).get("count", 0)

        before = assembled()
        reply = service.dispatch("batch", {
            "requests": [{"city": "paris", "group_spec": spec}
                         for spec in specs],
            "_trace": {"trace_id": "batch-trace", "sampled": True}})
        assert reply["trace_id"] == "batch-trace"
        assert [r["cached"] for r in reply["responses"]] == [
            True] + [False] * misses

        (trace,) = service.tracer.slowest_traces()
        assert trace["trace_id"] == "batch-trace"
        assert {s["trace_id"] for s in trace["spans"]} == {"batch-trace"}
        names = [s["name"] for s in trace["spans"]]
        assert names.count("serve:batch") == 1
        assert names.count("cache_lookup") == len(specs)
        assert names.count("assemble") == misses
        assert assembled() == before + misses


class TestCacheUnit:
    def test_lru_eviction_order(self, uniform_group):
        profile = uniform_group.profile()

        def key(tag):
            return cache_key(tag, profile, GroupQuery.of(attr=1), None,
                             None, None)

        cache = PackageCache(capacity=2)
        sentinel_a, sentinel_b, sentinel_c = object(), object(), object()
        cache.put(key("a"), sentinel_a)
        cache.put(key("b"), sentinel_b)
        assert cache.get(key("a")) is sentinel_a  # refresh a's recency
        cache.put(key("c"), sentinel_c)           # evicts b, the LRU
        assert cache.get(key("b")) is None
        assert cache.get(key("a")) is sentinel_a
        assert cache.get(key("c")) is sentinel_c
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3 and stats["misses"] == 1

    def test_purge_drops_one_citys_superseded_epochs(self, uniform_group):
        profile = uniform_group.profile()

        def key(city, epoch):
            return cache_key(city, profile, GroupQuery.of(attr=1), None,
                             None, None, epoch=epoch)

        cache = PackageCache(capacity=8)
        for city, epoch in (("a", 0), ("a", 1), ("b", 0), ("a", 2)):
            cache.put(key(city, epoch), (city, epoch))
        assert cache.purge("a", 2) == 2
        assert cache.purge("c", 5) == 0
        assert key("a", 2) in cache and key("b", 0) in cache
        assert key("a", 0) not in cache and key("a", 1) not in cache
        stats = cache.stats()
        assert (stats["size"], stats["purges"], stats["evictions"]) == (
            2, 2, 0)
        # The city index follows LRU evictions too: nothing stale is
        # left to purge, and purging a city does not touch another.
        small = PackageCache(capacity=1)
        small.put(key("a", 0), 0)
        small.put(key("b", 0), 0)  # evicts a's entry
        assert small.purge("a", 1) == 0 and len(small) == 1
        assert small.purge("b", 1) == 1 and len(small) == 0

    def test_fingerprint_tracks_content_not_identity(self, uniform_group):
        profile = uniform_group.profile()
        clone = type(profile).from_dict(profile.to_dict())
        assert profile_fingerprint(profile) == profile_fingerprint(clone)
        bumped = profile.updated("attr", profile.vector("attr") + 0.01)
        assert profile_fingerprint(profile) != profile_fingerprint(bumped)


class TestSessions:
    def _open(self, service, spec_request):
        response = service.open_session(spec_request)
        assert response.ok and response.session_id
        return response

    def test_remove_add_replace_flow(self, service, spec_request):
        opened = self._open(service, spec_request)
        sid = opened.session_id
        target = opened.package[0].pois[-1]

        removed = service.apply(CustomizeRequest(
            session_id=sid, op=CustomizeOp.REMOVE, ci_index=0,
            poi_id=target.id, actor=1,
        ))
        assert removed.ok
        assert target.id not in removed.package[0]

        candidate = service.suggest_additions(sid, ci_index=0, k=1,
                                              category=target.cat)[0]
        added = service.apply(CustomizeRequest(
            session_id=sid, op=CustomizeOp.ADD, ci_index=0,
            add_poi_id=candidate.id, actor=1,
        ))
        assert added.ok and candidate.id in added.package[0]
        assert added.package.is_valid(spec_request.query)

        log = service.interactions(sid)
        assert [i.kind.value for i in log] == ["remove", "add"]
        assert service.close_session(sid) == log
        assert service.open_sessions == 0

    def test_refine_and_rebuild_use_feedback(self, service, spec_request):
        opened = self._open(service, spec_request)
        sid = opened.session_id
        victim = opened.package[1].pois[-1]
        service.apply(CustomizeRequest(session_id=sid, op=CustomizeOp.REMOVE,
                                       ci_index=1, poi_id=victim.id))
        before = service._session(sid).profile
        refined = service.refine(sid)
        assert np.any(refined.vector(victim.cat) != before.vector(victim.cat))
        rebuilt = service.rebuild(sid)
        assert rebuilt.ok and rebuilt.session_id == sid
        assert rebuilt.package.is_valid()

    def test_rebuild_keeps_origin_build_parameters(self, service):
        # Regression: rebuild must reuse the opening request's
        # weights/k/seed, not fall back to the city defaults.
        request = BuildRequest(
            city="paris", group_spec=GroupSpec(size=4, seed=5),
            k=3, seed=2, weights=ObjectiveWeights(gamma=2.0),
        )
        opened = self._open(service, request)
        assert opened.package.k == 3
        rebuilt = service.rebuild(opened.session_id)
        assert rebuilt.ok
        assert rebuilt.package.k == 3

    def test_bad_operations_are_error_responses(self, service, spec_request):
        opened = self._open(service, spec_request)
        sid = opened.session_id
        bogus = service.apply(CustomizeRequest(
            session_id=sid, op=CustomizeOp.REMOVE, ci_index=0, poi_id=10**9,
        ))
        assert not bogus.ok
        # The session survives a failed operation.
        assert service.apply(CustomizeRequest(
            session_id=sid, op=CustomizeOp.REMOVE, ci_index=0,
            poi_id=opened.package[0].pois[0].id,
        )).ok

    def test_session_table_is_bounded(self, registry, spec_request):
        service = PackageService(registry, cache_capacity=8, max_sessions=2)
        first = service.open_session(spec_request)
        second = service.open_session(BuildRequest(
            city="paris", group_spec=GroupSpec(size=4, seed=8)))
        assert first.ok and second.ok
        shed = service.open_session(BuildRequest(
            city="paris", group_spec=GroupSpec(size=4, seed=9)))
        assert not shed.ok
        assert shed.code == "overloaded"
        assert service.open_sessions == 2
        # Closing a session frees a slot.
        service.close_session(first.session_id)
        assert service.open_session(BuildRequest(
            city="paris", group_spec=GroupSpec(size=4, seed=9))).ok

    def test_unknown_session(self, service):
        response = service.apply(CustomizeRequest(
            session_id="nope", op=CustomizeOp.REMOVE, poi_id=1,
        ))
        assert not response.ok
        with pytest.raises(UnknownSessionError):
            service.close_session("nope")

    def test_customize_request_validation(self):
        with pytest.raises(ValueError):
            CustomizeRequest(session_id="s", op=CustomizeOp.REMOVE)
        with pytest.raises(ValueError):
            CustomizeRequest(session_id="s", op=CustomizeOp.ADD)
        with pytest.raises(ValueError):
            CustomizeRequest(session_id="s", op=CustomizeOp.GENERATE)


class TestWireFormats:
    def test_build_request_json_roundtrip(self, uniform_group):
        request = BuildRequest(
            city="paris", profile=uniform_group.profile(),
            query=GroupQuery.of(acco=1, attr=2, budget=30.0),
            weights=ObjectiveWeights(gamma=2.0), k=4, seed=3,
            request_id="rt-1",
        )
        back = BuildRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert back.city == request.city
        assert back.query == request.query
        assert back.weights == request.weights
        assert (back.k, back.seed, back.request_id) == (4, 3, "rt-1")
        assert profile_fingerprint(back.profile) == profile_fingerprint(
            request.profile
        )

    def test_customize_request_json_roundtrip(self):
        request = CustomizeRequest(
            session_id="s7", op=CustomizeOp.GENERATE,
            rect=(48.87, 2.30, 0.02, 0.02), actor=2, request_id="c-1",
        )
        back = CustomizeRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert back == request
        assert back.rectangle().center == request.rectangle().center

    def test_package_response_json_roundtrip(self, service, spec_request):
        response = service.build(spec_request)
        back = PackageResponse.from_dict(
            json.loads(json.dumps(response.to_dict()))
        )
        assert back.city == response.city
        assert back.metrics == response.metrics
        assert ([ci.poi_ids for ci in back.package]
                == [ci.poi_ids for ci in response.package])

    def test_error_response_roundtrip(self):
        response = PackageResponse(city="paris", error="boom",
                                   request_id="x")
        back = PackageResponse.from_dict(response.to_dict())
        assert not back.ok and back.error == "boom"


class TestCli:
    def test_no_subcommand_prints_usage_and_exits_2(self, capsys):
        assert main([]) == 2
        usage = capsys.readouterr().err
        assert "serve" in usage and "loadgen" in usage


class TestDispatch:
    """The picklable wire entry point the shard workers funnel through."""

    def test_build_via_dispatch(self, service, spec_request):
        response = service.dispatch("build", spec_request.to_dict())
        assert response["error"] is None
        assert response["city"] == "paris"
        assert PackageResponse.from_dict(response).package.is_valid()

    def test_session_lifecycle_via_dispatch(self, service, spec_request):
        opened = service.dispatch("open_session", spec_request.to_dict())
        sid = opened["session_id"]
        assert sid
        victim = opened["package"]["composite_items"][0]["pois"][-1]
        edited = service.dispatch("customize", {
            "session_id": sid, "op": "remove", "ci_index": 0,
            "poi_id": victim["id"],
        })
        assert edited["error"] is None
        closed = service.dispatch("close_session", {"session_id": sid})
        assert [i["kind"] for i in closed["interactions"]] == ["remove"]
        again = service.dispatch("close_session", {"session_id": sid})
        assert again["code"] == "unknown_session"

    def test_batch_and_stats_and_ping(self, service, spec_request):
        assert service.dispatch("ping", {}) == {"ok": True}
        result = service.dispatch("batch",
                                  {"requests": [spec_request.to_dict()] * 2})
        assert all(r["error"] is None for r in result["responses"])
        # Identical in-flight requests race (no coalescing), but a
        # later single build must hit what the batch cached.
        followup = service.dispatch("build", spec_request.to_dict())
        assert followup["cached"] is True
        stats = service.dispatch("stats", {})
        assert stats["cache"]["hits"] >= 1

    def test_warmup(self, service):
        warmed = service.dispatch("warmup", {"cities": ["paris"]})
        assert "paris" in warmed["cities"]

    def test_every_listed_op_is_handled(self, service):
        # DISPATCH_OPS is what the TCP front-end admits; dispatch()
        # must actually handle each one (bad-payload errors are fine,
        # falling through to "unknown operation" is the divergence
        # this test pins down).
        for op in PackageService.DISPATCH_OPS:
            response = service.dispatch(op, {})
            error = response.get("error") or ""
            assert "unknown operation" not in error, op

    def test_malformed_payloads_become_bad_request_responses(self, service):
        for op, payload in [
            ("build", {}),                          # no city
            ("build", {"city": "paris"}),           # no group form
            ("batch", {}),                          # no requests key
            ("customize", {"op": "remove"}),        # no session_id
            ("close_session", {}),                  # no session_id
            ("teleport", {}),                       # unknown op
        ]:
            response = service.dispatch(op, payload)
            assert response["error"] is not None, (op, payload)
            assert response["code"] == "bad_request"

    @pytest.mark.parametrize("weights", [
        {"alpha": float("nan")}, {"beta": float("nan")},
        {"gamma": float("nan")}, {"fuzzifier": float("nan")},
        {"alpha": float("inf")}, {"fuzzifier": float("inf")},
        {"fuzzifier": 1.0}, {"fuzzifier": 0.5},
    ], ids=["nan-alpha", "nan-beta", "nan-gamma", "nan-fuzzifier",
            "inf-alpha", "inf-fuzzifier", "fuzzifier-1", "fuzzifier-0.5"])
    def test_non_finite_weights_are_bad_requests(self, service, weights):
        """A NaN weight once reached the build and failed deep inside
        assembly with a leaked IndexError; a fuzzifier <= 1 failed only
        at recentering.  Both are payload errors."""
        for op in ("build", "open_session"):
            response = service.dispatch(op, {
                "city": "paris", "group_spec": {"size": 3, "seed": 1},
                "weights": weights, "request_id": "w"})
            assert response["code"] == "bad_request", (op, response)
            assert response["request_id"] == "w"
        batch = service.dispatch("batch", {"requests": [
            {"city": "paris", "group_spec": {"size": 3}, "weights": weights},
            {"city": "paris", "group_spec": {"size": 3}}]})
        first, second = batch["responses"]
        assert first["code"] == "bad_request"
        assert second["error"] is None

    def test_error_codes_classify_failures(self, service, spec_request):
        not_found = service.dispatch("build", {
            "city": "atlantis", "group_spec": {"size": 3}})
        assert not_found["code"] == "not_found"
        invalid = service.dispatch("build", {
            "city": "paris", "group_spec": {"size": 3},
            "query": {"counts": {"acco": 500}}})
        assert invalid["code"] == "invalid"


class TestDeterminism:
    def test_identical_builds_across_fresh_registries(self):
        """Two registries built from scratch with one seed must serve
        byte-identical responses -- the guarantee that lets the shard
        layer route a city to *any* worker that fits it with the same
        config.  Only the wall-clock field may differ."""
        def serve_one():
            registry = CityRegistry(seed=13, scale=0.3, lda_iterations=25)
            service = PackageService(registry)
            request = BuildRequest(city="paris",
                                   group_spec=GroupSpec(size=4, seed=3),
                                   seed=2)
            payload = service.build(request).to_dict()
            assert payload["error"] is None
            payload.pop("latency_ms")
            return json.dumps(payload, sort_keys=True)

        assert serve_one() == serve_one()


class TestRegistryFailureHygiene:
    def test_failed_entry_leaves_no_poisoned_lock(self):
        registry = CityRegistry(scale=0.3, lda_iterations=20)
        with pytest.raises(KeyError):
            registry.entry("atlantis")
        # Regression: the per-city lock slot must not outlive the
        # failure -- client-controlled names would leak a Lock each.
        assert "atlantis" not in registry._city_locks
        assert registry.loaded() == ()

    def test_failed_register_leaves_no_trace_and_is_retryable(self, app):
        from repro.data.dataset import POIDataset

        registry = CityRegistry(scale=0.3, lda_iterations=20)
        empty = POIDataset(city="ghost", pois=[])
        with pytest.raises(ValueError, match="empty"):
            registry.register(empty)
        assert "ghost" not in registry._city_locks
        assert "ghost" not in registry.available()

        # The name is not poisoned: a valid dataset registers fine.
        entry = registry.register(app.dataset, app.item_index, name="ghost")
        assert entry.name == "ghost"
        assert "ghost" in registry.loaded()
        assert "ghost" in registry._city_locks  # kept while entry lives

    def test_successful_load_keeps_its_lock(self, registry):
        # The lock for a loaded city stays (it guards re-registration).
        assert "paris" in registry._city_locks


class TestObservability:
    def test_stats_shape(self, service, spec_request):
        service.build(spec_request)
        service.build(spec_request)
        stats = service.stats()
        assert "paris" in stats["cities"]
        assert stats["cache"]["hits"] == 1
        ops = stats["metrics"]["operations"]
        assert ops["build"]["count"] == 1
        assert ops["build_cached"]["count"] == 1
        assert ops["build"]["p95_ms"] >= ops["build"]["p50_ms"] >= 0
        assert stats["metrics"]["total_operations"] == 2

    def test_profile_resolve_is_traced_on_a_cold_build_only(self, service):
        """Generating a spec's group is its own stage of the trace; a
        warm hit finds the profile cached and pays no such span."""
        names = {}
        for trace_id in ("cold", "warm"):
            service.dispatch("build", {
                "city": "paris", "group_spec": {"size": 5, "seed": 80123},
                "_trace": {"trace_id": trace_id, "sampled": True}})
        for trace in service.tracer.slowest_traces():
            names[trace["trace_id"]] = {s["name"] for s in trace["spans"]}
        assert {"profile_resolve", "assemble",
                "package_metrics"} <= names["cold"]
        assert "profile_resolve" not in names["warm"]
        assert "assemble" not in names["warm"]
        stages = service.stats()["obs"]["stages"]
        assert stages["profile_resolve"]["count"] == 1
