"""The NDJSON writer: a cached package is encoded once and spliced.

``encode_line`` must give exactly ``json.dumps(response).encode() +
b"\\n"`` for every reply, whether its values are plain or
:class:`~repro.service.schema.Encoded` (a dict carrying its own JSON
text).  A Hypothesis property covers the writer alone; per-op tests
drive real replies through ``PackageServer._process_line``; a
process-backed cluster covers the pickle hop; and a spy pins that a
warm hit serializes nothing.
"""

import asyncio
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.package import TravelPackage
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
