"""The NDJSON writer: a cached package is encoded once and spliced.

``encode_line`` must give exactly ``json.dumps(response).encode() +
b"\\n"`` for every reply, whether its values are plain or
:class:`~repro.service.schema.Encoded` (a dict carrying its own JSON
text).  A Hypothesis property covers the writer alone; per-op tests
drive real replies through ``PackageServer._process_line``; a
process-backed cluster covers the pickle hop; and a spy pins that a
warm hit serializes nothing.

A built package's text is itself spliced from per-POI JSON texts, each
computed once per ``POI`` object (``TravelPackage.to_json``); it must
equal ``json.dumps(package.to_dict())`` for any package, and for
packages served after live mutations of their own POIs, and a POI's
text must die with the POI.
"""

import asyncio
import copy
import gc
import json
import math
import pickle
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.composite import CompositeItem
from repro.core.package import TravelPackage
from repro.core.query import DEFAULT_QUERY, GroupQuery
from repro.data.poi import CATEGORIES, POI
from repro.live.mutations import mutation_from_dict
from repro.service import (
    CityRegistry,
    ErrorCode,
    PackageServer,
    PackageService,
    ShardCluster,
    ShardConfig,
)
from repro.service.schema import BuildRequest, Encoded
from repro.service.server import encode_line

WIRE_SETTINGS = settings(max_examples=60, deadline=None)


def dumps_line(response) -> bytes:
    """The reference encoding every reply line must equal."""
    return json.dumps(response).encode() + b"\n"


# -- the writer alone ----------------------------------------------------------

awkward_text = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", " ", "é",
                     "\U0001f600", 'a"b\\c\n', "\ud800"]),
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True), awkward_text,
)
plain_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(awkward_text, inner, max_size=3),
    ),
    max_leaves=8,
)
encoded_values = st.dictionaries(awkward_text, plain_values,
                                 max_size=4).map(Encoded)
field_values = st.one_of(plain_values, encoded_values)
replies = st.dictionaries(awkward_text, field_values, max_size=8)


@st.composite
def batch_replies(draw):
    """A batch reply: ``Encoded`` only below the top level."""
    reply = {"responses": draw(st.lists(replies, max_size=3))}
    reply.update(draw(replies))
    return reply


class TestEncodeLine:
    @given(reply=replies)
    @WIRE_SETTINGS
    def test_bytes_equal_json_dumps(self, reply):
        assert encode_line(reply) == dumps_line(reply)

    @given(reply=batch_replies())
    @WIRE_SETTINGS
    def test_nested_encoded_in_a_batch(self, reply):
        assert encode_line(reply) == dumps_line(reply)

    @given(value=encoded_values)
    @WIRE_SETTINGS
    def test_encoded_text_and_pickle_round_trip(self, value):
        assert value.json == json.dumps(value) == json.dumps(dict(value))
        shipped = pickle.loads(pickle.dumps(value))
        assert type(shipped) is Encoded
        assert shipped.json == value.json
        assert json.dumps(shipped) == value.json

    def test_edges(self):
        fragment = Encoded({"x": [1, float("nan")]})
        for reply in ({}, {"a": fragment}, {"a": fragment, "b": fragment},
                      {"a": 1, "b": fragment}, {"a": fragment, "b": None},
                      {1: fragment, True: "t", None: Encoded()}):
            assert encode_line(reply) == dumps_line(reply), reply

    def test_unencodable_values_still_raise(self):
        with pytest.raises(TypeError):
            encode_line({"a": Encoded(), "b": object()})


# -- spliced package texts ------------------------------------------------------

#: Floats whose spelling is easy to get wrong: integral values, the
#: smallest subnormal and normal, and the largest finite ones.
edge_floats = st.sampled_from([0.0, -0.0, 1.0, 3.0, 1e16, 2.0 ** 53 + 2,
                               5e-324, 2.2250738585072014e-308, 1e-300,
                               1e300, 1.7976931348623157e308])


def _floats(lo: float, hi: float):
    return st.one_of(st.floats(lo, hi), st.integers(math.ceil(lo),
                                                    math.floor(hi)).map(float),
                     edge_floats.filter(lambda x: lo <= x <= hi))


pois = st.builds(
    POI, id=st.integers(-(2 ** 63), 2 ** 63), name=awkward_text,
    cat=st.sampled_from(CATEGORIES), lat=_floats(-90.0, 90.0),
    lon=_floats(-180.0, 180.0), type=awkward_text,
    tags=st.lists(awkward_text, max_size=3).map(tuple),
    cost=st.one_of(edge_floats.map(abs), st.floats(0.0, 1e308)),
)
composite_items = st.builds(
    CompositeItem, st.lists(pois, max_size=4, unique_by=lambda p: p.id),
    centroid=st.tuples(st.floats(), st.floats()),
)
queries = st.one_of(st.none(), st.builds(
    lambda counts, budget: GroupQuery.of(
        **dict(zip(("acco", "trans", "rest", "attr"), counts)),
        budget=budget),
    st.tuples(*[st.integers(0, 3)] * 4).filter(any),
    st.one_of(st.just(math.inf), st.floats(0.0, 1e9), edge_floats.map(abs))))
packages = st.builds(TravelPackage, st.lists(composite_items, min_size=1,
                                             max_size=4), query=queries)


def spliced(package: TravelPackage) -> Encoded:
    """The wire form a build miss caches."""
    return Encoded.spliced(package.to_dict(), package.to_json())


class TestSplicedPackageText:
    @given(package=packages)
    @WIRE_SETTINGS
    def test_text_equals_json_dumps(self, package):
        text = package.to_json()
        assert text == json.dumps(package.to_dict())
        assert package.to_json() == text  # cached POI texts reused
        wire = spliced(package)
        assert wire.json == text == json.dumps(wire)
        assert encode_line({"package": wire, "cached": False}) == \
            dumps_line({"package": package.to_dict(), "cached": False})
        shipped = pickle.loads(pickle.dumps(wire))
        assert shipped.json == text == json.dumps(dict(shipped))

    def test_a_poi_text_is_computed_once(self):
        poi = POI(id=1, name="Café \"x\"\n", cat="rest", lat=48.0,
                  lon=2.0, tags=("é", "\\"), cost=3.0)
        assert poi.to_json() is poi.to_json()
        assert poi.to_json() == json.dumps(poi.to_dict())
        assert poi == POI.from_dict(poi.to_dict())  # the text is no field

    @given(data=st.data())
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_served_after_mutating_their_own_pois(self, app, data):
        """Build, then reprice, close or add POIs of the package just
        served; every later build is a miss whose spliced text equals
        ``json.dumps`` of its dict and names the current POI objects."""
        registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
        registry.register(app.dataset, copy.deepcopy(app.item_index),
                          name="paris")
        service = PackageService(registry, cache_capacity=8)
        request = BuildRequest.from_dict(spec(data.draw(
            st.integers(0, 99), label="group")))
        next_id = 10 ** 6
        try:
            for step in range(data.draw(st.integers(1, 4), label="steps")):
                response = service.build(request)
                assert not response.cached and response.ok
                wire, package = response.package_wire, response.package
                assert wire.json == json.dumps(package.to_dict())
                assert dict(wire) == package.to_dict()
                current = registry.dataset("paris")
                assert all(current[p.id] is p for p in package.all_pois())
                target = data.draw(st.sampled_from(package.all_pois()),
                                   label=f"target{step}")
                kind = data.draw(st.sampled_from(
                    ["reprice_poi", "close_poi", "add_poi"]),
                    label=f"kind{step}")
                if kind == "reprice_poi":
                    mutation = {"poi_id": target.id, "cost": data.draw(
                        st.one_of(edge_floats.map(abs),
                                  st.floats(0.0, 1e6)), label="cost")}
                elif kind == "close_poi":
                    mutation = {"poi_id": target.id}
                else:
                    mutation = {"poi": dict(
                        target.to_dict(), id=next_id,
                        name=data.draw(awkward_text, label="name"),
                        tags=data.draw(st.lists(awkward_text, max_size=2),
                                       label="tags"))}
                    next_id += 1
                registry.mutate("paris", mutation_from_dict(
                    dict(mutation, kind=kind)))
                touched = registry.dataset("paris").get(
                    mutation.get("poi_id", next_id - 1))
                if touched is not None:
                    alone = TravelPackage([CompositeItem(
                        [touched], centroid=(touched.lat, touched.lon))])
                    assert alone.to_json() == json.dumps(alone.to_dict())
            response = service.build(request)
            assert response.package_wire.json == json.dumps(
                response.package.to_dict())
        finally:
            service.close()

    def test_reprices_leave_one_live_text_per_poi(self, app):
        """200 reprices of one POI, each followed by a build whose
        package holds it and a spliced encode: only the current POI
        object keeps a text, because texts live on POI objects and
        die with them (no table of them outlives an epoch)."""
        registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
        registry.register(app.dataset, copy.deepcopy(app.item_index),
                          name="paris")
        entry = registry.entry("paris")
        profile = registry.group_profile(
            "paris", BuildRequest.from_dict(spec(5)).group_spec)
        poi_id = entry.builder.build(profile, DEFAULT_QUERY)[0].pois[0].id
        base = entry.dataset[poi_id]  # the app's POI, shared and alive
        repriced = []
        for i in range(200):
            registry.mutate("paris", mutation_from_dict(
                {"kind": "reprice_poi", "poi_id": poi_id,
                 "cost": 1.0 + i / 8}))
            entry = registry.entry("paris")
            package = entry.builder.build(profile, DEFAULT_QUERY)
            held = [p for p in package.all_pois() if p.id == poi_id]
            assert held  # an unbudgeted query ignores costs
            wire = spliced(package)
            assert f'"cost": {1.0 + i / 8}' in held[0].to_json()
            assert wire.json == json.dumps(package.to_dict())
            repriced.append(weakref.ref(held[0]))
        del package, held, wire
        gc.collect()
        live = [o for o in gc.get_objects()
                if type(o) is POI and o.id == poi_id and "_json" in vars(o)
                and o is not base]
        assert live == [registry.dataset("paris")[poi_id]]
        assert sum(ref() is not None for ref in repriced) == 1


# -- real replies through the server -------------------------------------------

@pytest.fixture(scope="module")
def registry(app):
    registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
    registry.register(app.dataset, app.item_index, name="paris")
    return registry


@pytest.fixture(scope="module")
def cluster(registry):
    def factory(shard_id):
        return PackageService(registry, cache_capacity=32, shard=shard_id)

    cluster = ShardCluster(shards=1, config=ShardConfig(scale=0.4),
                           cities=["paris"], use_processes=False,
                           service_factory=factory)
    yield cluster
    cluster.shutdown()


def spec(seed, **extra):
    return {"city": "paris", "group_spec": {"size": 4, "seed": seed},
            **extra}


class _Sink:
    """Stands in for a connection's ``StreamWriter``."""

    def __init__(self):
        self.data = b""

    def is_closing(self):
        return False

    def write(self, data):
        self.data += data

    async def drain(self):
        return None


def serve(server, envelope) -> tuple[dict, bytes]:
    """One line through ``_process_line``: the reply dict the server
    built and the bytes it wrote for it."""
    seen = []
    handle_line = server.handle_line

    async def recording(line):
        seen.append(await handle_line(line))
        return seen[-1]

    async def scenario():
        server.handle_line = recording
        sink = _Sink()
        server._responding += 1
        try:
            await server._process_line(
                envelope if isinstance(envelope, bytes)
                else json.dumps(envelope).encode(),
                sink, asyncio.Lock())
        finally:
            del server.handle_line
        return sink.data

    data = asyncio.run(scenario())
    assert len(seen) == 1
    return seen[0], data


@pytest.fixture()
def server(cluster):
    server = PackageServer(cluster)
    yield server
    server.tracer.close()


class TestRepliesPerOp:
    def test_build_miss_then_hit(self, server):
        miss, miss_bytes = serve(server, {"op": "build", "id": 1,
                                          "request": spec(301)})
        hit, hit_bytes = serve(server, {
            "op": "build", "id": 2,
            "request": spec(301, request_id='é"\n\\x')})
        assert not miss["cached"] and hit["cached"]
        for reply, data in ((miss, miss_bytes), (hit, hit_bytes)):
            assert isinstance(reply["package"], Encoded)
            assert isinstance(reply["metrics"], Encoded)
            assert data == dumps_line(reply)
        assert hit["package"] is miss["package"]  # encoded once
        assert json.loads(hit_bytes)["request_id"] == 'é"\n\\x'

    def test_bytes_equal_the_response_to_dict(self, registry):
        service = PackageService(registry)
        request = BuildRequest.from_dict(spec(302))
        service.build(request)
        response = service.build(request)
        service.close()
        assert response.cached
        reply = response.to_dict()
        fresh = dict(reply, package=response.package.to_dict(),
                     metrics=dict(response.metrics))
        assert encode_line(reply) == dumps_line(fresh)

    def test_open_session_and_customize(self, server):
        opened, opened_bytes = serve(server, {"op": "open_session",
                                              "request": spec(303)})
        assert opened["error"] is None
        assert isinstance(opened["package"], Encoded)
        assert opened_bytes == dumps_line(opened)
        first = opened["package"]["composite_items"][0]["pois"][0]["id"]
        edited, edited_bytes = serve(server, {"op": "customize", "request": {
            "session_id": opened["session_id"], "op": "remove",
            "ci_index": 0, "poi_id": first}})
        assert edited["error"] is None
        assert not isinstance(edited["package"], Encoded)  # the dict path
        assert edited_bytes == dumps_line(edited)

    def test_batch(self, server):
        serve(server, {"op": "build", "request": spec(304)})
        batch, data = serve(server, {"op": "batch", "id": "b", "request": {
            "requests": [spec(304), spec(305), {"city": 7}]}})
        responses = batch["responses"]
        assert [r["cached"] for r in responses[:2]] == [True, False]
        assert isinstance(responses[0]["package"], Encoded)
        assert responses[2]["code"] == ErrorCode.BAD_REQUEST.value
        assert data == dumps_line(batch)

    def test_error_lines(self, server):
        for line in (b"not json\n", json.dumps({
                "op": "build", "id": 3,
                "request": {"city": "atlantis",
                            "group_spec": {"size": 2}}}).encode()):
            reply, data = serve(server, line)
            assert reply["error"] and data == dumps_line(reply)

    def test_stats(self, server):
        reply, data = serve(server, {"op": "stats"})
        assert "server" in reply and data == dumps_line(reply)


class TestWarmHitSerializesNothing:
    def test_no_package_to_dict_and_no_package_dumps(self, server,
                                                     monkeypatch):
        serve(server, {"op": "build", "request": spec(306)})  # the miss

        to_dict_calls = []
        original_to_dict = TravelPackage.to_dict

        def spy_to_dict(package):
            to_dict_calls.append(package)
            return original_to_dict(package)

        def holds_package(obj) -> bool:
            if isinstance(obj, dict):
                return ("composite_items" in obj
                        or any(holds_package(v) for v in obj.values()))
            if isinstance(obj, (list, tuple)):
                return any(holds_package(v) for v in obj)
            return False

        package_dumps = []
        original_dumps = json.dumps

        def spy_dumps(obj, *args, **kwargs):
            if holds_package(obj):
                package_dumps.append(obj)
            return original_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(TravelPackage, "to_dict", spy_to_dict)
        monkeypatch.setattr(json, "dumps", spy_dumps)
        line = original_dumps({"op": "build", "request": spec(306)}).encode()
        hit, data = serve(server, line)
        monkeypatch.undo()

        assert hit["cached"]
        assert to_dict_calls == []
        assert package_dumps == []
        assert data == dumps_line(hit)


class TestProcessHop:
    def test_pickled_replies_keep_text_and_dict_equal(self):
        config = ShardConfig(scale=0.25, lda_iterations=20, seed=11,
                             cache_capacity=8)
        with ShardCluster(shards=1, config=config, cities=["paris"],
                          use_processes=True) as cluster:
            payload = spec(7, request_id="pé")
            cold = cluster.dispatch("build", payload)
            warm = cluster.dispatch("build", payload)
            batch = cluster.dispatch("batch", {"requests": [payload]})
        assert cold["error"] is None and warm["cached"]
        for reply in (cold, warm):
            for key in ("package", "metrics"):
                assert type(reply[key]) is Encoded
                assert reply[key].json == json.dumps(dict(reply[key]))
            assert encode_line(reply) == dumps_line(reply)
        assert warm["package"] == cold["package"]
        assert warm["package"].json == cold["package"].json
        nested = batch["responses"][0]
        assert nested["package"].json == warm["package"].json
        assert encode_line(batch) == dumps_line(batch)
