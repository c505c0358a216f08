"""The serving tier: shard routing, sticky sessions, the NDJSON
front-end's admission control and drain, and the load generator.

Cluster tests run thread-backed shards over the session's pre-fitted
city (no extra LDA fits); one test boots a real two-process cluster at
tiny scale to cover the fork/pickle path end to end.  Front-end
behaviors that depend on timing (shedding, draining, out-of-order
completion) run against a stub cluster whose futures the test resolves
by hand, so they are deterministic.
"""

import asyncio
import copy
import json
import math
import threading
import time
from concurrent.futures import Future

import pytest

from repro.obs import ObsConfig, WindowConfig
from repro.profiles.generator import GroupGenerator
from repro.service import (
    CityRegistry,
    ErrorCode,
    LoadgenConfig,
    PackageServer,
    PackageService,
    ShardCluster,
    ShardConfig,
    build_workload,
)
from repro.service.loadgen import run_sync, run_tcp
from repro.service.server import serve_stdin


@pytest.fixture(scope="module")
def cluster(app):
    """Two thread-backed shards over the shared pre-fitted Paris (plus
    lazily generated Barcelona on whichever shard it routes to)."""
    registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
    registry.register(app.dataset, app.item_index, name="paris")

    def factory(shard_id):
        return PackageService(registry, cache_capacity=32, shard=shard_id)

    cluster = ShardCluster(shards=2, config=ShardConfig(scale=0.4),
                           cities=["paris", "barcelona"],
                           use_processes=False, service_factory=factory)
    yield cluster
    cluster.shutdown()


def spec_payload(city="paris", seed=5, **extra):
    payload = {"city": city, "group_spec": {"size": 4, "seed": seed}}
    payload.update(extra)
    return payload


class TestShardRouting:
    def test_explicit_placement_round_robin(self, cluster):
        assert cluster.placement == {"paris": 0, "barcelona": 1}
        assert cluster.shard_for("paris") == 0
        assert cluster.shard_for("PARIS") == 0  # case-insensitive
        assert cluster.shard_for("barcelona") == 1

    def test_hash_routing_is_stable(self, cluster):
        # Unplaced cities fall back to a content hash -- it must be
        # identical across calls (and, unlike hash(), across runs).
        assert cluster.shard_for("rome") == cluster.shard_for("rome")
        assert cluster.shard_for("rome") == ShardCluster(
            shards=2, use_processes=False,
            service_factory=lambda i: None,  # never dispatched
        ).shard_for("rome")

    def test_factory_service_must_carry_its_shard(self):
        """A factory-built service not stamped with its shard would
        label every span, error and metrics record as shard ``None``."""
        service = PackageService(CityRegistry())
        with pytest.raises(ValueError, match="shard=0"):
            ShardCluster(shards=1, use_processes=False,
                         service_factory=lambda i: service)
        service.close()

    def test_build_routes_by_city(self, cluster):
        paris = cluster.dispatch("build", spec_payload("paris"))
        assert paris["error"] is None and paris["shard"] == 0
        barcelona = cluster.dispatch("build", spec_payload("barcelona"))
        assert barcelona["error"] is None and barcelona["shard"] == 1

    def test_batch_splits_and_reassembles_in_order(self, cluster):
        requests = [
            spec_payload("paris", 1, request_id="a"),
            spec_payload("barcelona", 1, request_id="b"),
            spec_payload("paris", 2, request_id="c"),
            spec_payload("nowhere", 1, request_id="d"),  # error slot
        ]
        result = cluster.dispatch("batch", {"requests": requests})
        responses = result["responses"]
        assert [r["request_id"] for r in responses] == ["a", "b", "c", "d"]
        assert [r["shard"] for r in responses[:3]] == [0, 1, 0]
        assert responses[3]["error"] is not None
        assert responses[3]["code"] == ErrorCode.NOT_FOUND.value

    def test_malformed_batch_payload(self, cluster):
        result = cluster.dispatch("batch", {"requests": "nope"})
        assert result["code"] == ErrorCode.BAD_REQUEST.value

    def test_malformed_batch_elements_error_their_own_slots(self, cluster):
        # Regression: a non-dict element (or an unparseable dict) must
        # come back as a bad_request *in its slot*, not raise in
        # reassembly or poison its shard's whole sub-batch.
        result = cluster.dispatch("batch", {"requests": [
            None,                                      # not an object
            spec_payload("paris", 1, request_id="good"),
            {"city": "paris"},                         # no group form
        ]})
        responses = result["responses"]
        assert responses[0]["code"] == ErrorCode.BAD_REQUEST.value
        assert responses[1]["error"] is None
        assert responses[1]["request_id"] == "good"
        assert responses[2]["code"] == ErrorCode.BAD_REQUEST.value

    def test_oversized_batch_is_rejected_whole(self, cluster):
        # One envelope is one admission unit: an unbounded batch inside
        # it must not become an unbounded work queue.
        from repro.service.engine import MAX_BATCH_REQUESTS

        oversized = [spec_payload("paris", s)
                     for s in range(MAX_BATCH_REQUESTS + 1)]
        result = cluster.dispatch("batch", {"requests": oversized})
        assert result["code"] == ErrorCode.BAD_REQUEST.value
        assert "limit" in result["error"]

    def test_warmup_isolates_and_reports_bad_cities(self, cluster):
        # Regression: one unknown city must not abort the other cities'
        # warmup on its shard, and the failure must surface.
        result = cluster.dispatch("warmup",
                                  {"cities": ["atlantis", "paris"]})
        assert "paris" in result["cities"]
        assert "atlantis" in result["failed"]
        assert "atlantis" in result["failed"]["atlantis"]

    def test_unknown_op(self, cluster):
        result = cluster.dispatch("explode", {})
        assert result["code"] == ErrorCode.BAD_REQUEST.value


class TestStickySessions:
    def test_session_lives_on_its_shard(self, cluster):
        opened = cluster.dispatch("open_session", spec_payload("barcelona"))
        assert opened["error"] is None
        sid = opened["session_id"]
        assert sid.startswith("1/")  # barcelona's shard

        victim = opened["package"]["composite_items"][0]["pois"][-1]
        edited = cluster.dispatch("customize", {
            "session_id": sid, "op": "remove", "ci_index": 0,
            "poi_id": victim["id"],
        })
        assert edited["error"] is None
        assert edited["shard"] == 1          # sticky: same shard
        assert edited["session_id"] == sid   # cluster-form id echoed

        closed = cluster.dispatch("close_session", {"session_id": sid})
        assert len(closed["interactions"]) == 1
        assert closed["interactions"][0]["kind"] == "remove"

    def test_unprefixed_or_bogus_session_ids(self, cluster):
        # "²" (superscript two) is isdigit() but not int()-parseable;
        # it must classify as unknown_session, not raise.
        for sid in ("s1", "99/s1", "not/a/number"[::-1], "", "²/s1"):
            response = cluster.dispatch("customize", {
                "session_id": sid, "op": "remove", "ci_index": 0,
                "poi_id": 1,
            })
            assert response["error"] is not None
            assert response["code"] == ErrorCode.UNKNOWN_SESSION.value

    def test_session_unknown_on_other_shard(self, cluster):
        opened = cluster.dispatch("open_session", spec_payload("paris"))
        local = opened["session_id"].split("/", 1)[1]
        # The same local id aimed at the *other* shard must not resolve.
        response = cluster.dispatch("close_session",
                                    {"session_id": f"1/{local}"})
        assert response.get("code") == ErrorCode.UNKNOWN_SESSION.value
        cluster.dispatch("close_session",
                         {"session_id": opened["session_id"]})


class TestClusterStats:
    def test_stats_merge_shards(self, cluster):
        cluster.dispatch("build", spec_payload("paris", seed=71))
        cluster.dispatch("build", spec_payload("paris", seed=71))
        cluster.dispatch("build", spec_payload("barcelona", seed=71))
        stats = cluster.stats()
        assert len(stats["shards"]) == 2
        assert stats["placement"] == {"paris": 0, "barcelona": 1}
        assert set(stats["cities"]) >= {"paris", "barcelona"}
        combined = stats["cache"]
        assert combined["hits"] == sum(s["cache"]["hits"]
                                       for s in stats["shards"])
        assert combined["hits"] >= 1  # the repeated paris build
        ops = stats["metrics"]["operations"]
        assert ops["build"]["count"] == sum(
            s["metrics"]["operations"].get("build", {}).get("count", 0)
            for s in stats["shards"])

    def test_merged_sections_equal_the_shard_sums(self, app):
        """Under mixed cold/warm/session/mutate traffic on both shards,
        every merged event count is the sum of the shards' counts."""
        def factory(shard_id):
            registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
            registry.register(app.dataset, copy.deepcopy(app.item_index),
                              name=("paris", "rome")[shard_id])
            return PackageService(registry, cache_capacity=16,
                                  shard=shard_id)

        mix = (("cold", 0.3), ("warm", 0.3), ("session", 0.2),
               ("mutate", 0.2))
        with ShardCluster(shards=2, config=ShardConfig(scale=0.4),
                          cities=["paris", "rome"], use_processes=False,
                          service_factory=factory) as cluster:
            report = run_sync(cluster.dispatch, build_workload(
                LoadgenConfig(cities=("paris", "rome"), actions=24, seed=3,
                              mix=mix)))
            assert report.errors == 0 and report.mutations_sent > 0
            stats = cluster.stats()

        shards = stats["shards"]
        assert all(s["metrics"]["total_operations"] > 0 for s in shards)
        for section in ("cache", "assembly", "live"):
            assert set(stats[section]) == set(shards[0][section])
            for key, value in stats[section].items():
                if key != "hit_rate":
                    assert value == pytest.approx(
                        sum(s[section][key] for s in shards)), (section, key)
        cache = stats["cache"]
        assert cache["hits"] > 0 and stats["live"]["mutations_applied"] > 0
        assert cache["hit_rate"] == pytest.approx(
            cache["hits"] / (cache["hits"] + cache["misses"]))
        metrics = stats["metrics"]
        assert set(metrics) == set(shards[0]["metrics"])
        assert metrics["total_operations"] == sum(
            s["metrics"]["total_operations"] for s in shards)
        for op, numbers in metrics["operations"].items():
            assert numbers["count"] == sum(
                s["metrics"]["operations"].get(op, {}).get("count", 0)
                for s in shards), op


class TestProcessCluster:
    def test_end_to_end_over_real_processes(self):
        """The fork/pickle path: private per-worker assets, sticky
        sessions and merged stats across actual processes."""
        config = ShardConfig(scale=0.25, lda_iterations=20, seed=11,
                             cache_capacity=8)
        with ShardCluster(shards=2, config=config,
                          cities=["paris", "barcelona"]) as cluster:
            assert cluster.dispatch("ping", {})["ok"] is True
            warmed = cluster.dispatch("warmup", {"cities": ["paris"]})
            assert warmed["cities"] == ["paris"]

            cold = cluster.dispatch("build", spec_payload("paris"))
            assert cold["error"] is None and not cold["cached"]
            warm = cluster.dispatch("build", spec_payload("paris"))
            assert warm["cached"] and warm["shard"] == cold["shard"]

            opened = cluster.dispatch("open_session",
                                      spec_payload("paris", seed=6))
            assert opened["error"] is None
            closed = cluster.dispatch("close_session",
                                      {"session_id": opened["session_id"]})
            assert closed["interactions"] == []

            stats = cluster.stats()
            assert stats["cache"]["hits"] >= 1
            assert len(stats["shards"]) == 2

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            ShardCluster(shards=0)
        with pytest.raises(ValueError):
            ShardCluster(shards=1, use_processes=True,
                         service_factory=lambda i: None)


class TestShardSelfHealing:
    def test_killed_worker_is_replaced_and_requests_retried(self):
        """SIGKILLing an idle shard worker closes its pipe; the shard
        must spawn a fresh worker, serve the next requests, and report
        the restart in stats."""
        import os
        import signal

        config = ShardConfig(scale=0.15, lda_iterations=5, seed=3)
        with ShardCluster(shards=1, config=config,
                          use_processes=True) as cluster:
            assert cluster.dispatch("ping", {})["ok"] is True
            shard = cluster._shards[0]
            os.kill(shard._process.pid, signal.SIGKILL)
            # The next dispatch rides the respawn-and-retry path (the
            # dead worker may surface on the send or on the receive;
            # both must recover).
            assert cluster.dispatch("ping", {})["ok"] is True
            assert shard.restarted == 1
            # Real work still lands on the replacement worker.
            response = cluster.dispatch("build", spec_payload("paris"))
            assert response["error"] is None
            stats = cluster.stats()
            assert stats["restarted"] == 1
            assert stats["shards"][0]["restarted"] == 1

    def test_a_respawned_worker_replays_the_stored_journal(self, tmp_path):
        """A healed shard hydrates its cities from the store, base plus
        journal: it serves the mutated city at the epoch it had, byte
        for byte, and its next mutation continues the journal."""
        import os
        import signal

        config = ShardConfig(scale=0.15, lda_iterations=5, seed=3,
                             store_path=str(tmp_path / "assets"))
        with ShardCluster(shards=1, config=config,
                          use_processes=True) as cluster:
            built = cluster.dispatch("build", spec_payload("paris"))
            poi = built["package"]["composite_items"][0]["pois"][0]
            for mutation in ({"kind": "reprice_poi", "poi_id": poi["id"],
                              "cost": poi["cost"] + 3.0},
                             {"kind": "close_poi", "poi_id": poi["id"]}):
                receipt = cluster.dispatch("mutate", {
                    "city": "paris", "mutation": mutation})
                assert receipt.get("error") is None, receipt
            before = cluster.dispatch("build", spec_payload("paris", seed=8))
            os.kill(cluster._shards[0]._process.pid, signal.SIGKILL)
            assert cluster.dispatch("ping", {})["ok"] is True
            after = cluster.dispatch("build", spec_payload("paris", seed=8))
            assert cluster.stats()["restarted"] == 1
            assert after["cached"] is False
            assert after["package"] == before["package"]
            other = after["package"]["composite_items"][0]["pois"][0]
            receipt = cluster.dispatch("mutate", {"city": "paris", "mutation": {
                "kind": "reprice_poi", "poi_id": other["id"], "cost": 1.0}})
            assert (receipt["epoch"], receipt["seq"]) == (3, 3)

    def test_sessions_die_with_their_worker(self):
        """Self-healing trades session state for availability: a healed
        shard answers, but sessions opened on the dead worker come back
        as structured unknown_session errors."""
        import os
        import signal

        config = ShardConfig(scale=0.15, lda_iterations=5, seed=3)
        with ShardCluster(shards=1, config=config,
                          use_processes=True) as cluster:
            opened = cluster.dispatch("open_session", spec_payload("paris"))
            assert opened["error"] is None
            os.kill(cluster._shards[0]._process.pid, signal.SIGKILL)
            resumed = cluster.dispatch("close_session",
                                       {"session_id": opened["session_id"]})
            assert resumed["code"] == ErrorCode.UNKNOWN_SESSION.value
            assert cluster.stats()["restarted"] == 1

    def test_a_worker_killed_mid_request_is_replaced_and_retried(self):
        """A worker SIGKILLed while it fits a fresh city: the request
        in flight is retried on the replacement worker and resolves
        with the city."""
        import os
        import signal

        config = ShardConfig(scale=0.5, lda_iterations=120, seed=3)
        with ShardCluster(shards=1, config=config,
                          use_processes=True) as cluster:
            assert cluster.dispatch("ping", {})["ok"] is True
            shard = cluster._shards[0]
            future = cluster.submit("warmup", {"cities": ["paris"]})
            time.sleep(0.2)
            assert not future.done()
            os.kill(shard._process.pid, signal.SIGKILL)
            assert future.result(timeout=60) == {"cities": ["paris"]}
            assert shard.restarted == 1

    def test_a_failed_respawn_leaves_the_shard_usable(self, monkeypatch):
        """A respawn whose fork fails fails the request in flight, and
        the next request respawns again instead of waiting forever on a
        pipe with no worker behind it."""
        import errno
        import os
        import signal

        from repro.service import shard as shard_module

        config = ShardConfig(scale=0.15, lda_iterations=5, seed=3)
        cluster = ShardCluster(shards=1, config=config, use_processes=True)
        try:
            assert cluster.dispatch("ping", {})["ok"] is True
            shard = cluster._shards[0]
            start = shard_module.Process.start
            failed = []

            def start_failing_once(process):
                if not failed:
                    failed.append(process)
                    raise OSError(errno.EAGAIN, "fork failed")
                start(process)

            monkeypatch.setattr(shard_module.Process, "start",
                                start_failing_once)
            os.kill(shard._process.pid, signal.SIGKILL)
            with pytest.raises(OSError, match="fork failed"):
                cluster.submit("ping", {}).result(timeout=10)
            # Checked before the next request, so a front end left holding
            # both ends of a pipe fails here instead of hanging the suite.
            assert shard._conn.closed
            assert cluster.submit("ping", {}).result(timeout=10)["ok"] is True
            assert shard.restarted == 1
        finally:
            # On a thread, so a shard stuck on a dead pipe fails the
            # test instead of hanging it.
            stopping = threading.Thread(target=cluster.shutdown, daemon=True)
            stopping.start()
            stopping.join(timeout=5.0)
        assert not stopping.is_alive()

    def test_a_cluster_that_fails_to_start_stops_its_workers(
            self, monkeypatch):
        """A worker that cannot be forked fails the cluster's
        construction, and the workers already started are stopped."""
        from repro.service import shard as shard_module

        started = []
        start = shard_module.Process.start

        def start_twice(process):
            if len(started) == 2:
                raise OSError("fork failed")
            start(process)
            started.append(process)

        monkeypatch.setattr(shard_module.Process, "start", start_twice)
        config = ShardConfig(scale=0.15, lda_iterations=5, seed=3)
        with pytest.raises(OSError, match="fork failed"):
            ShardCluster(shards=3, config=config, use_processes=True)
        assert [process.exitcode for process in started] == [0, 0]

    def test_shutdown_stops_every_worker_promptly(self):
        """Workers stop on a sentinel frame: closing the pipe alone does
        not reach a worker whose pipe end a later sibling inherited."""
        config = ShardConfig(scale=0.15, lda_iterations=5, seed=3)
        cluster = ShardCluster(shards=2, config=config, use_processes=True)
        assert cluster.dispatch("ping", {})["shards"] == 2
        # On a thread, so a worker that never stops fails the test
        # instead of hanging it.
        stopping = threading.Thread(target=cluster.shutdown, daemon=True)
        stopping.start()
        stopping.join(timeout=1.0)
        assert not stopping.is_alive()
        assert all(shard._process.exitcode is not None
                   for shard in cluster._shards)


# -- the NDJSON front-end ------------------------------------------------------

class _StubCluster:
    """A hand-resolvable backend: submit() parks a Future the test
    completes, so timing-sensitive front-end behavior is deterministic."""

    def __init__(self):
        self.pending = []

    def submit(self, op, payload):
        future = Future()
        self.pending.append((op, payload, future))
        return future

    def resolve(self, index=0, **extra):
        op, payload, future = self.pending.pop(index)
        future.set_result({"city": payload.get("city", ""), "op": op,
                           "error": None, **extra})


async def _client(host, port):
    return await asyncio.open_connection(host, port)


async def _send_line(writer, payload):
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()


async def _read_line(reader, timeout=5.0):
    line = await asyncio.wait_for(reader.readline(), timeout)
    assert line, "connection closed unexpectedly"
    return json.loads(line)


class TestPackageServer:
    def test_sheds_beyond_max_inflight_and_never_hangs(self):
        async def scenario():
            stub = _StubCluster()
            server = PackageServer(stub, max_inflight=2)
            host, port = await server.start(port=0)
            reader, writer = await _client(host, port)

            for i in range(4):  # pipelined, no responses yet
                await _send_line(writer, {"op": "build", "id": i,
                                          "request": {"city": "paris"}})
            # Admission control answers the overflow immediately...
            shed = [await _read_line(reader) for _ in range(2)]
            assert {r["code"] for r in shed} == {ErrorCode.OVERLOADED.value}
            assert {r["id"] for r in shed} == {2, 3}
            assert server.inflight == 2
            assert len(stub.pending) == 2

            # ...and the accepted two complete once the backend answers,
            # later-resolved first: responses interleave by design.
            stub.resolve(1)
            second = await _read_line(reader)
            assert second["id"] == 1 and second["error"] is None
            stub.resolve(0)
            first = await _read_line(reader)
            assert first["id"] == 0

            counters = server.stats()
            assert counters["accepted"] == 2 and counters["shed"] == 2
            assert counters["peak_inflight"] == 2
            writer.close()
            await writer.wait_closed()
            await server.drain(timeout=1)

        asyncio.run(scenario())

    def test_bad_lines_get_structured_errors(self):
        async def scenario():
            stub = _StubCluster()
            server = PackageServer(stub)
            host, port = await server.start(port=0)
            reader, writer = await _client(host, port)

            for line in (b"not json\n", b"[1, 2]\n",
                         b'{"op": 7, "request": {}}\n',
                         b'{"op": "mystery", "request": {}}\n'):
                writer.write(line)
            await writer.drain()
            responses = [await _read_line(reader) for _ in range(4)]
            assert all(r["code"] == ErrorCode.BAD_REQUEST.value
                       for r in responses)
            assert server.stats()["bad_lines"] == 3  # unknown op is parsed
            writer.close()
            await writer.wait_closed()
            await server.drain(timeout=1)

        asyncio.run(scenario())

    def test_oversized_line_answered_not_dropped(self):
        # Regression: a line over the stream limit used to raise an
        # uncaught ValueError in the reader, killing the connection
        # with no response and dropping in-flight replies.
        from repro.service import server as server_module

        async def scenario():
            stub = _StubCluster()
            server = PackageServer(stub, max_inflight=4)
            host, port = await server.start(port=0)
            reader, writer = await _client(host, port)
            # One legitimate request first: its reply is owed even
            # after the read loop dies on the oversized line.
            await _send_line(writer, {"op": "build", "id": "owed",
                                      "request": {"city": "paris"}})
            while not stub.pending:
                await asyncio.sleep(0.01)
            giant = b'{"op": "build", "request": {"pad": "' \
                + b"x" * (server_module.MAX_LINE_BYTES + 1024) + b'"}}\n'
            writer.write(giant)
            await writer.drain()
            stub.resolve(0)
            responses = [await _read_line(reader, timeout=10)
                         for _ in range(2)]
            by_id = {r.get("id"): r for r in responses}
            assert by_id["owed"]["error"] is None
            assert by_id[None]["code"] == ErrorCode.BAD_REQUEST.value
            assert "exceeds" in by_id[None]["error"]
            assert (await reader.read()) == b""  # clean close after
            writer.close()
            await writer.wait_closed()
            await server.drain(timeout=1)

        asyncio.run(scenario())

    def test_bare_build_request_line_back_compat(self):
        async def scenario():
            stub = _StubCluster()
            server = PackageServer(stub)
            host, port = await server.start(port=0)
            reader, writer = await _client(host, port)
            # PR-1 json-lines format: a BuildRequest dict, no envelope.
            await _send_line(writer, {"city": "paris",
                                      "group_spec": {"size": 3}})
            while not stub.pending:
                await asyncio.sleep(0.01)
            op, payload, _ = stub.pending[0]
            assert op == "build"
            # The front-end adds its trace context; the request body
            # itself must ship unchanged.
            wire_trace = payload.pop("_trace")
            assert wire_trace["trace_id"]
            assert payload == {"city": "paris", "group_spec": {"size": 3}}
            stub.resolve(0)
            assert (await _read_line(reader))["error"] is None
            writer.close()
            await writer.wait_closed()
            await server.drain(timeout=1)

        asyncio.run(scenario())

    def test_drain_finishes_inflight_then_closes(self):
        async def scenario():
            stub = _StubCluster()
            server = PackageServer(stub, max_inflight=4)
            host, port = await server.start(port=0)
            reader, writer = await _client(host, port)
            await _send_line(writer, {"op": "build", "id": "slow",
                                      "request": {"city": "paris"}})
            while not stub.pending:
                await asyncio.sleep(0.01)

            drain = asyncio.create_task(server.drain(timeout=5))
            await asyncio.sleep(0.05)
            assert not drain.done()  # waiting on the in-flight request

            # New work during drain is shed, not queued.
            await _send_line(writer, {"op": "build", "id": "late",
                                      "request": {"city": "paris"}})
            responses = {}
            stub.resolve(0)
            for _ in range(2):
                response = await _read_line(reader)
                responses[response["id"]] = response
            assert responses["slow"]["error"] is None
            assert responses["late"]["code"] == ErrorCode.OVERLOADED.value
            await drain
            assert (await reader.read()) == b""  # server closed the conn
            writer.close()
            await writer.wait_closed()

        asyncio.run(scenario())

    def test_stdin_mode_serves_envelopes(self, cluster, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join([
            json.dumps({"op": "build", "request": spec_payload("paris")}),
            "",
            json.dumps({"op": "stats"}),
        ]) + "\n")
        out = tmp_path / "responses.jsonl"

        async def scenario():
            server = PackageServer(cluster)
            with requests.open() as stdin, out.open("w") as stdout:
                return await serve_stdin(server, stdin=stdin, stdout=stdout)

        assert asyncio.run(scenario()) == 2
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["error"] is None and lines[0]["city"] == "paris"
        assert "server" in lines[1] and len(lines[1]["shards"]) == 2

    def test_nan_weight_line_is_a_bad_request(self, cluster):
        """``json.loads`` accepts the ``NaN`` literal, so a NaN weight
        reaches the engine; it must come back as ``bad_request``, not
        as ``failed`` with an internal error message."""
        line = ('{"op": "build", "id": "nan", "request": {"city": "paris",'
                ' "group_spec": {"size": 4, "seed": 5},'
                ' "weights": {"alpha": NaN}}}')

        async def scenario():
            server = PackageServer(cluster)
            try:
                return await server.handle_line(line)
            finally:
                server.tracer.close()

        response = json.loads(json.dumps(asyncio.run(scenario())))
        assert response["id"] == "nan"
        assert response["code"] == ErrorCode.BAD_REQUEST.value
        assert "alpha" in response["error"]

    def test_nan_budget_line_is_a_bad_request(self, cluster):
        """``NaN < 0`` is false, so a NaN budget used to pass the query
        check, skip budget repair (it is not finite) and come back as
        an ok reply whose package is ``valid: false``, then be cached."""
        line = ('{"op": "build", "id": "nanb", "request": {"city": "paris",'
                ' "group_spec": {"size": 4, "seed": 5}, "query": {"counts":'
                ' {"acco": 1, "trans": 1, "rest": 1, "attr": 3},'
                ' "budget": NaN}}}')

        async def scenario():
            server = PackageServer(cluster)
            try:
                return [await server.handle_line(line) for _ in range(2)]
            finally:
                server.tracer.close()

        for response in json.loads(json.dumps(asyncio.run(scenario()))):
            assert response["id"] == "nanb"
            assert response["code"] == ErrorCode.BAD_REQUEST.value
            assert "budget" in response["error"]
            assert response.get("package") is None

    @pytest.mark.parametrize("field, value, words", [
        ("k", "true", "k must be an integer"),
        ("k", "2.7", "k must be an integer"),
        ("k", "2.0", "k must be an integer"),
        ("k", '"3"', "k must be an integer"),
        ("k", "0", "between 1 and 20"),
        ("k", "21", "between 1 and 20"),
        ("k", "150", "between 1 and 20"),
        ("seed", "false", "seed must be an integer"),
        ("seed", "1.5", "seed must be an integer"),
        ("size", "true", "group size must be an integer"),
        ("size", "2.5", "group size must be an integer"),
        ("size", "0", "between 1 and 100"),
        ("size", "101", "between 1 and 100"),
        ("size", "1024", "between 1 and 100"),
        ("spec_seed", "true", "group seed must be an integer"),
        ("spec_seed", "0.5", "group seed must be an integer"),
        ("attr", "true", "query count for attr must be an integer"),
        ("attr", "1.5", "query count for attr must be an integer"),
        ("uniform", '"false"', "group uniform must be a boolean"),
        ("uniform", "0", "group uniform must be a boolean"),
        ("uniform", "1", "group uniform must be a boolean"),
        ("uniform", "null", "group uniform must be a boolean"),
        ("poi_id", "2.7", "poi_id must be an integer"),
        ("poi_id", "true", "poi_id must be an integer"),
        ("poi_id", '"3"', "poi_id must be an integer"),
        ("ci_index", "1.5", "ci_index must be an integer"),
        ("ci_index", "true", "ci_index must be an integer"),
        ("add_poi_id", "2.7", "add_poi_id must be an integer"),
        ("replacement_id", '"3"', "replacement_id must be an integer"),
        ("actor", "true", "actor must be an integer"),
        ("actor", "1.5", "actor must be an integer"),
    ])
    def test_work_fields_are_typed_and_bounded(self, cluster, field, value,
                                               words):
        """``"k": true`` used to build k=1, ``"k": 2.7`` two CIs and
        ``"size": true`` a group of one, ``"uniform": "false"`` a
        uniform group; an unbounded ``k`` or ``size`` priced the whole
        shard.  A customize id went through ``int()``: ``"poi_id": 2.7``
        edited POI 2, and ``true`` or ``"3"`` passed as ids."""
        customize_ops = {"poi_id": "remove", "ci_index": "remove",
                         "actor": "remove", "add_poi_id": "add",
                         "replacement_id": "replace"}
        if field in customize_ops:
            # Parsing precedes the session lookup, so no session is open.
            edit = {"session_id": "0/1", "op": customize_ops[field],
                    "poi_id": 1, "add_poi_id": 1, field: "VALUE"}
            element = json.dumps(edit).replace('"VALUE"', value)
            direct = PackageService(CityRegistry()).dispatch(
                "customize", dict(json.loads(element), session_id="1"))
            line = f'{{"op": "customize", "id": "c", "request": {element}}}'

            async def served_edit():
                server = PackageServer(cluster)
                try:
                    return await server.handle_line(line)
                finally:
                    server.tracer.close()

            served = json.loads(json.dumps(asyncio.run(served_edit())))
            for reply in (direct, served):
                assert reply["code"] == ErrorCode.BAD_REQUEST.value, reply
                assert words in reply["error"]
            return
        request = {"city": "paris", "group_spec": {"size": 4, "seed": 5},
                   "query": {"counts": {"acco": 1, "trans": 1, "rest": 1,
                                        "attr": 2}}}
        target = {"k": request, "seed": request,
                  "size": request["group_spec"],
                  "uniform": request["group_spec"],
                  "spec_seed": request["group_spec"],
                  "attr": request["query"]["counts"]}[field]
        target[field.removeprefix("spec_")] = "VALUE"
        element = json.dumps(request).replace('"VALUE"', value)
        build = f'{{"op": "build", "id": "b", "request": {element}}}'
        good = json.dumps(spec_payload("paris", 11, request_id="good"))
        batch = ('{"op": "batch", "id": "B", "request": {"requests": '
                 f'[{good}, {element}]}}}}')

        async def scenario():
            server = PackageServer(cluster)
            try:
                return (await server.handle_line(build),
                        await server.handle_line(batch))
            finally:
                server.tracer.close()

        single, batched = json.loads(json.dumps(asyncio.run(scenario())))
        assert single["code"] == ErrorCode.BAD_REQUEST.value
        assert words in single["error"]
        first, second = batched["responses"]
        assert first["error"] is None and first["request_id"] == "good"
        assert second["code"] == ErrorCode.BAD_REQUEST.value
        assert words in second["error"]

    def test_work_bounds_admit_the_bounds(self):
        """The bounds themselves are servable requests."""
        from repro.service import MAX_GROUP_SIZE, MAX_K, BuildRequest

        request = BuildRequest.from_dict({
            "city": "paris", "k": MAX_K, "seed": 3,
            "group_spec": {"size": MAX_GROUP_SIZE, "uniform": False,
                           "seed": 2}})
        assert (request.k, request.group_spec.size) == (MAX_K,
                                                        MAX_GROUP_SIZE)

    @pytest.mark.parametrize("op, request_json", [
        ("build", '{"city": "paris", "group_spec": {"size": 4}, "query":'
                  ' {"counts": {"attr": 2}, "budget": 1' + "0" * 400 + '}}'),
        ("build", '{"city": "paris", "group_spec": {"size": 4, "w1": 1'
                  + "0" * 400 + '}}'),
        ("batch", '{"requests": [{"city": "paris", "group_spec": {"size":'
                  ' 4}, "query": {"counts": {"attr": 2}, "budget": 1'
                  + "0" * 400 + '}}]}'),
        ("customize", '{"session_id": "0/1", "op": "remove",'
                      ' "poi_id": 1e400}'),
        ("customize", '{"session_id": "0/1", "op": "remove", "poi_id": 1,'
                      ' "ci_index": 1e400}'),
    ], ids=["budget", "w1", "batch_budget", "poi_id", "ci_index"])
    def test_overflowing_numbers_are_bad_requests(self, cluster, op,
                                                  request_json):
        """A number no float holds (``10**400``) or an infinite one
        where an integer belongs (``1e400``) raised ``OverflowError``
        out of ``dispatch``; through the server it came back ``failed``."""
        payload = json.loads(request_json)
        direct = PackageService(CityRegistry()).dispatch(
            op, dict(payload, session_id="1") if op == "customize"
            else payload)
        line = f'{{"op": "{op}", "id": "o", "request": {request_json}}}'

        async def scenario():
            server = PackageServer(cluster)
            try:
                return await server.handle_line(line)
            finally:
                server.tracer.close()

        served = json.loads(json.dumps(asyncio.run(scenario())))
        for reply in (direct, served):
            if op == "batch":
                (reply,) = reply["responses"]
            assert reply["code"] == ErrorCode.BAD_REQUEST.value, reply
            # A customize id is typed before any conversion.
            assert ("must be an integer" if op == "customize"
                    else "convert") in reply["error"]

    @pytest.mark.parametrize("score", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_profile_line_is_a_bad_request(self, cluster, app,
                                                      score):
        """A profile score of ``NaN`` or ``Infinity`` once reached the
        builder and came back as ``failed`` with an internal
        ``IndexError`` message (and a ``RuntimeWarning``)."""
        wire = GroupGenerator(app.schema, seed=3).uniform_group(3) \
            .profile().to_dict()
        wire["vectors"]["rest"][1] = "SCORE"
        line = json.dumps({"op": "build", "id": "inf", "request": {
            "city": "paris", "profile": wire}}).replace('"SCORE"', score)

        async def scenario():
            server = PackageServer(cluster)
            try:
                return await server.handle_line(line)
            finally:
                server.tracer.close()

        response = json.loads(json.dumps(asyncio.run(scenario())))
        assert response["id"] == "inf"
        assert response["code"] == ErrorCode.BAD_REQUEST.value
        assert "non-finite" in response["error"]

    def test_validation(self, cluster):
        with pytest.raises(ValueError):
            PackageServer(cluster, max_inflight=0)


# -- end-to-end tracing --------------------------------------------------------

class TestTracing:
    def test_client_tagged_trace_spans_the_whole_stack(self, cluster):
        """A client-tagged build traced front-end -> shard -> engine:
        the response echoes the trace id and the ``trace`` op returns
        one unioned span tree covering both sides of the wire."""
        from repro.obs.check import check_log_lines

        async def scenario():
            server = PackageServer(cluster)
            host, port = await server.start(port=0)
            reader, writer = await _client(host, port)
            await _send_line(writer, {
                "op": "build", "id": "tagged",
                "request": spec_payload("paris", seed=41),
                "trace": {"trace_id": "e2e-client-1"},
            })
            response = await _read_line(reader, timeout=30)
            assert response["id"] == "tagged" and response["error"] is None
            assert response["trace_id"] == "e2e-client-1"

            await _send_line(writer, {"op": "trace"})
            traces = (await _read_line(reader, timeout=30))["traces"]
            mine = [t for t in traces if t["trace_id"] == "e2e-client-1"]
            assert mine, [t["trace_id"] for t in traces]
            spans = mine[0]["spans"]
            names = {s["name"] for s in spans}
            # Front-end portion and worker portion in one tree.
            assert {"request:build", "dispatch",
                    "queue_wait", "serve:build"} <= names
            assert "serialize" in names
            # The union is a well-formed tree: unique span ids, one
            # root, every parent resolves.
            summary, problems = check_log_lines(
                json.dumps(dict(s, kind="span")) for s in spans)
            assert problems == []
            assert summary["traces"] == 1
            writer.close()
            await writer.wait_closed()
            await server.drain(timeout=1)
            server.tracer.close()

        asyncio.run(scenario())

    def test_trace_limit_applies_after_the_union(self, cluster):
        async def scenario():
            server = PackageServer(cluster)
            host, port = await server.start(port=0)
            reader, writer = await _client(host, port)
            for seed in (51, 52, 53):
                await _send_line(writer, {
                    "op": "build",
                    "request": spec_payload("paris", seed=seed),
                    "trace": {"trace_id": f"e2e-limit-{seed}"},
                })
                await _read_line(reader, timeout=30)
            await _send_line(writer, {"op": "trace",
                                      "request": {"limit": 1}})
            traces = (await _read_line(reader, timeout=30))["traces"]
            assert len(traces) == 1
            # The survivor still carries worker spans: the limit must
            # not have trimmed the union's inputs shard-side.
            names = {s["name"] for s in traces[0]["spans"]}
            assert "serve:build" in names or "serve:stats" in names \
                or "request:build" in names
            writer.close()
            await writer.wait_closed()
            await server.drain(timeout=1)
            server.tracer.close()

        asyncio.run(scenario())

    def test_malformed_trace_limits_get_one_bad_request_each(self, cluster):
        """A ``limit`` that is not an int >= 0 is a ``bad_request``.  A
        string used to raise in ``handle_line`` after dispatch, killing
        the reply task so the client waited forever; a negative int
        sliced the tail off the traces."""
        limits = ["abc", -1, 1.5, True, [1], {"n": 1}]

        async def scenario():
            server = PackageServer(cluster)
            host, port = await server.start(port=0)
            reader, writer = await _client(host, port)
            for index, limit in enumerate(limits):
                await _send_line(writer, {"op": "trace", "id": index,
                                          "request": {"limit": limit}})
            await _send_line(writer, {"op": "trace", "id": "zero",
                                      "request": {"limit": 0}})
            replies = [await _read_line(reader, timeout=10)
                       for _ in range(len(limits) + 1)]
            writer.write_eof()
            rest = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            await writer.wait_closed()
            await server.drain(timeout=1)
            server.tracer.close()
            return replies, rest

        replies, rest = asyncio.run(scenario())
        assert rest == b""  # exactly one line per request
        by_id = {reply["id"]: reply for reply in replies}
        assert set(by_id) == set(range(len(limits))) | {"zero"}
        for index, limit in enumerate(limits):
            assert by_id[index]["code"] == ErrorCode.BAD_REQUEST.value
            assert "limit" in by_id[index]["error"], limit
        assert by_id["zero"]["traces"] == []

    def test_stats_carry_merged_obs_and_utilization(self, cluster):
        cluster.dispatch("build", spec_payload("paris", seed=61))
        cluster.dispatch("build", spec_payload("barcelona", seed=61))
        stats = cluster.stats()
        obs = stats["obs"]
        assert obs["stages"]["cache_lookup"]["count"] >= 2
        for numbers in obs["stages"].values():
            assert math.isfinite(numbers["p99_ms"])
            assert numbers["p99_ms"] >= 0.0
        assert obs["counters"]["traces"] >= 2
        shares = [s["utilization"] for s in stats["shards"]]
        assert all(0.0 <= u <= 1.0 for u in shares)
        assert sum(shares) == pytest.approx(1.0)
        # The cluster's obs is one exact merge of the shards' registries:
        # every stage, city and counter is the shard sum.
        shards = [s["obs"] for s in stats["shards"]]
        for table in ("stages", "cities"):
            assert set(obs[table]) == {n for s in shards for n in s[table]}
            for name, numbers in obs[table].items():
                assert numbers["count"] == sum(
                    s[table].get(name, {}).get("count", 0) for s in shards)
        for name, count in obs["counters"].items():
            assert count == sum(s["counters"][name] for s in shards)

    def test_obs_wire_shape_is_unchanged(self, cluster, tmp_path):
        """The ``obs`` keys on a shard, on the cluster and in
        ``stats.server.obs`` -- what ``loadgen --expect-traced`` and
        dashboards read -- with and without an event log."""
        hist_fields = {"count", "total_ms", "mean_ms", "min_ms", "max_ms",
                       "p50_ms", "p90_ms", "p95_ms", "p99_ms", "buckets"}
        process = {"enabled", "sample_rate", "counters", "stages",
                   "cities", "ring"}
        merged = {"enabled", "counters", "stages", "cities"}

        def check(obs, keys, log_keys):
            assert set(obs) == keys | ({"log"} if log_keys else set())
            assert set(obs["counters"]) == {"traces", "spans", "errors"}
            assert obs["stages"]
            for table in ("stages", "cities"):
                for numbers in obs[table].values():
                    assert set(numbers) == hist_fields
            if log_keys:
                assert set(obs["log"]) == log_keys

        async def stats_of(server):
            await server.handle_line(json.dumps(
                {"op": "build", "request": spec_payload("paris", seed=43)}))
            return await server.handle_line(json.dumps(
                {"op": "stats", "request": {}}))

        server = PackageServer(cluster)
        stats = asyncio.run(stats_of(server))
        server.tracer.close()
        for shard in stats["shards"]:
            check(shard["obs"], process, None)
        check(stats["obs"], merged, None)
        check(stats["server"]["obs"], process, None)
        assert "paris" in stats["obs"]["cities"]

        obs = ObsConfig(log_path=str(tmp_path / "events.ndjson"))
        with ShardCluster(shards=2, config=ShardConfig(obs=obs),
                          use_processes=False) as logged:
            server = PackageServer(logged, obs=obs)
            line = json.dumps({"op": "stats", "request": {}})
            asyncio.run(server.handle_line(line))  # populates the stages
            stats = asyncio.run(server.handle_line(line))
            server.tracer.close()
        full = {"path", "written", "dropped"}
        for shard in stats["shards"]:
            check(shard["obs"], process, full)
        check(stats["obs"], merged, {"written", "dropped"})
        check(stats["server"]["obs"], process, full)

    def test_worker_metric_windows_carry_their_shard(self, tmp_path):
        """Every ``metrics`` record a worker writes names its shard:
        the id is stamped when the worker's registry is built."""
        path = tmp_path / "events.ndjson"
        config = ShardConfig(obs=ObsConfig(log_path=str(path)),
                             window=WindowConfig(interval_s=0.05, slots=8))
        with ShardCluster(shards=2, config=config,
                          use_processes=False) as cluster:
            for _ in range(4):
                cluster.stats()  # fans out: both shards record
                time.sleep(0.06)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        metrics = [r for r in records if r["kind"] == "metrics"]
        assert metrics
        assert {r.get("shard") for r in metrics} == {0, 1}

    def test_unknown_cities_stay_out_of_the_city_table(self, app):
        """Client-sent names that resolve to no city record no per-city
        breakdown, and case variants of a real name record under the
        resolved name, so neither can crowd real cities into
        ``__other__``."""
        registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
        registry.register(app.dataset, copy.deepcopy(app.item_index),
                          name="paris")
        service = PackageService(registry, cache_capacity=4)
        for i in range(200):
            response = service.dispatch("build", spec_payload(f"nowhere-{i}"))
            assert response["code"] == ErrorCode.NOT_FOUND.value
        response = service.dispatch("mutate", {
            "city": "nowhere-else",
            "mutation": {"kind": "reprice_poi", "poi_id": 1, "cost": 1.0}})
        assert response["code"] == ErrorCode.NOT_FOUND.value
        poi = next(iter(registry.dataset("paris")))
        variants = ["".join(c.upper() if bit == "1" else c
                            for c, bit in zip("paris", f"{n:05b}"))
                    for n in range(32)]
        for epoch, variant in enumerate(variants, start=1):
            response = service.dispatch("mutate", {
                "city": variant,
                "mutation": {"kind": "reprice_poi", "poi_id": poi.id,
                             "cost": round(poi.cost + 0.01 * epoch, 4)}})
            assert response.get("error") is None
            assert response["epoch"] == epoch
        built = service.dispatch("build", spec_payload("paris"))
        assert built["error"] is None
        obs = service.stats()["obs"]
        service.close()
        assert set(obs["cities"]) == {"paris"}
        assert obs["stages"]["mutate"]["count"] == 1 + len(variants)
        assert obs["cities"]["paris"]["count"] >= len(variants)
        assert obs["stages"]["serve:build"]["count"] == 201

    def test_cluster_trace_op_reaches_worker_rings(self, cluster):
        wire = {"trace_id": "direct-dispatch-1",
                "sent_s": time.perf_counter()}
        response = cluster.dispatch(
            "build", dict(spec_payload("paris", seed=67), _trace=wire))
        assert response["trace_id"] == "direct-dispatch-1"
        traces = cluster.dispatch("trace", {})["traces"]
        mine = [t for t in traces if t["trace_id"] == "direct-dispatch-1"]
        assert mine
        names = {s["name"] for s in mine[0]["spans"]}
        assert {"serve:build", "queue_wait"} <= names

    def test_untagged_dispatch_gets_no_trace_id(self, cluster):
        response = cluster.dispatch("ping", {})
        assert response["ok"] is True
        assert "trace_id" not in response
        built = cluster.dispatch("build", spec_payload("paris", seed=71))
        assert "trace_id" not in built


# -- the load generator --------------------------------------------------------

class TestLoadgen:
    def test_workload_is_deterministic(self):
        config = LoadgenConfig(actions=40, seed=9)
        first = build_workload(config)
        second = build_workload(config)
        assert ([json.dumps(a.envelope or a.open_envelope, sort_keys=True)
                 for a in first]
                == [json.dumps(a.envelope or a.open_envelope, sort_keys=True)
                    for a in second])
        assert first != build_workload(LoadgenConfig(actions=40, seed=10))

    def test_workload_respects_mix_and_passes(self):
        config = LoadgenConfig(actions=30, seed=1, passes=2,
                               mix=(("cold", 1.0),))
        workload = build_workload(config)
        assert len(workload) == 60
        assert all(a.kind == "cold" for a in workload)
        # Every cold spec seed is unique within a pass, repeated across
        # passes (that is what makes pass 2 a cache study).
        seeds = [a.envelope["request"]["group_spec"]["seed"]
                 for a in workload]
        assert len(set(seeds)) == 30
        assert seeds[:30] == seeds[30:]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadgenConfig(cities=())
        with pytest.raises(ValueError):
            LoadgenConfig(actions=0)
        with pytest.raises(ValueError):
            LoadgenConfig(mix=(("tsunami", 1.0),))
        with pytest.raises(ValueError):
            LoadgenConfig(mix=(("cold", 0.0), ("warm", 0.0)))
        with pytest.raises(ValueError):
            LoadgenConfig(mix=(("cold", -1.0), ("warm", 2.0)))
        with pytest.raises(ValueError):
            LoadgenConfig(mix=(("budget", 1.0),))  # needs a sweep
        with pytest.raises(ValueError):
            LoadgenConfig(budget_sweep=(0.0,), mix=(("budget", 1.0),))
        with pytest.raises(ValueError):
            LoadgenConfig(count_sweep=(0,))

    def test_budget_sweep_cycles_finite_budgets(self):
        config = LoadgenConfig(actions=30, seed=4,
                               mix=(("budget", 1.0),),
                               budget_sweep=(20.0, 30.0, 40.0))
        workload = build_workload(config)
        assert all(a.kind == "budget" for a in workload)
        budgets = [a.envelope["request"]["query"]["budget"]
                   for a in workload]
        assert set(budgets) == {20.0, 30.0, 40.0}
        # Cold-style specs: budgets never reuse a group spec, so each
        # action is a cache miss that must run the repair phase.
        seeds = [a.envelope["request"]["group_spec"]["seed"]
                 for a in workload]
        assert len(set(seeds)) == len(seeds)

    def test_count_sweep_varies_attraction_counts(self):
        config = LoadgenConfig(actions=40, seed=4, mix=(("cold", 1.0),),
                               count_sweep=(1, 3, 5))
        counts = {a.envelope["request"]["query"]["counts"]["attr"]
                  for a in build_workload(config)}
        assert counts == {1, 3, 5}
        # Warm actions tie the count to the spec so exact repeats stay
        # exact (the cache-hit guarantee survives the sweep).
        config = LoadgenConfig(actions=40, seed=4, mix=(("warm", 1.0),),
                               warm_pool=2, count_sweep=(1, 3, 5))
        by_spec = {}
        for action in build_workload(config):
            request = action.envelope["request"]
            spec = request["group_spec"]["seed"]
            by_spec.setdefault(spec, set()).add(
                request["query"]["counts"]["attr"])
        assert all(len(counts) == 1 for counts in by_spec.values())

    def test_budget_workload_exercises_repair_under_serving(self, cluster):
        """Budgeted traffic through the live serving path: every
        response is ok and every returned CI respects its budget --
        i.e. the repair phase ran and produced valid packages."""
        probe = cluster.dispatch("build", spec_payload("paris", seed=77))
        assert probe["error"] is None
        ci_costs = [sum(p["cost"] for p in ci["pois"])
                    for ci in probe["package"]["composite_items"]]
        budget = round(0.9 * max(ci_costs), 2)  # binds for some CIs

        config = LoadgenConfig(actions=10, seed=3, cities=("paris",),
                               mix=(("budget", 1.0),),
                               budget_sweep=(budget, budget * 1.1),
                               count_sweep=(2, 3))
        report = run_sync(cluster.dispatch, build_workload(config))
        assert report.errors == 0 and report.ok == 10
        assert report.by_kind["budget"] == 10
        for action in build_workload(config):
            response = cluster.dispatch(
                action.envelope["op"], action.envelope["request"])
            limit = action.envelope["request"]["query"]["budget"]
            assert response["error"] is None
            for ci in response["package"]["composite_items"]:
                assert sum(p["cost"] for p in ci["pois"]) <= limit + 1e-9

    def test_run_sync_against_cluster(self, cluster):
        config = LoadgenConfig(actions=14, seed=2,
                               cities=("paris", "barcelona"))
        report = run_sync(cluster.dispatch, build_workload(config))
        assert report.sent >= 14  # sessions add edit/close responses
        assert report.errors == 0 and report.shed == 0
        assert report.ok > 0
        assert set(report.by_kind) <= {"cold", "warm", "batch", "session",
                                       "session_edit", "session_close"}

    def test_run_tcp_against_live_server(self, cluster):
        config = LoadgenConfig(actions=12, seed=6,
                               cities=("paris", "barcelona"))
        workload = build_workload(config)

        async def scenario():
            server = PackageServer(cluster, max_inflight=16)
            host, port = await server.start(port=0)
            try:
                return await run_tcp(host, port, workload, connections=3)
            finally:
                await server.drain(timeout=2)

        report = asyncio.run(scenario())
        assert report.errors == 0 and report.shed == 0
        assert report.by_kind["cold"] + report.by_kind["warm"] >= 1
        assert report.throughput > 0


# -- windowed health -----------------------------------------------------------

class TestHealthOp:
    def test_cluster_health_merges_windows_and_verdicts(self, cluster):
        cluster.dispatch("build", spec_payload("paris", seed=81))
        result = cluster.dispatch("health", {})
        assert result["health"]["state"] in ("ok", "degraded", "breached")
        assert {s["shard"] for s in result["shards"]} == {0, 1}
        # The merged snapshot carries the serving counters and the
        # resource gauges every worker samples on a health poll.
        series = result["windows"]["series"]
        assert "requests" in series and "latency:build" in series
        assert "rss_bytes" in series and "cpu_s" in series

    def test_stats_carry_windows(self, cluster):
        cluster.dispatch("build", spec_payload("paris", seed=82))
        stats = cluster.stats()
        series = stats["metrics"]["windows"]["series"]
        assert "requests" in series
        assert series["latency:build"]["type"] == "histogram"

    def test_top_once_polls_a_live_server(self, cluster):
        """The dashboard CLI end to end: ``repro.obs.top --once --json
        --expect ok`` as a real subprocess against a live front-end
        must exit 0 and print the raw stats/health snapshot."""
        import subprocess
        import sys

        cluster.dispatch("build", spec_payload("paris", seed=83))

        async def scenario():
            server = PackageServer(cluster)
            host, port = await server.start(port=0)
            try:
                proc = await asyncio.create_subprocess_exec(
                    sys.executable, "-m", "repro.obs.top",
                    "--host", host, "--port", str(port),
                    "--once", "--json", "--expect", "ok",
                    "--timeout", "30",
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                out, err = await asyncio.wait_for(proc.communicate(), 60)
                assert proc.returncode == 0, err.decode()
                return json.loads(out.decode())
            finally:
                await server.drain(timeout=2)

        snapshot = asyncio.run(scenario())
        assert snapshot["health"]["health"]["state"] == "ok"
        assert "requests" in snapshot["health"]["windows"]["series"]
        assert "requests" in snapshot["stats"]["metrics"]["windows"]["series"]

    def test_top_reads_replies_as_large_as_loadgen(self):
        """``repro.obs.top`` repeats the serving tier's reply bound
        instead of importing it; the two must not drift apart."""
        from repro.obs import top
        from repro.service import server
        assert top.REPLY_LIMIT_BYTES == server.REPLY_LIMIT_BYTES

    def test_overload_flips_health_degraded_then_recovers(self, app):
        """The acceptance scenario: a burst into a ``max_inflight=1``
        front-end sheds almost everything, the ``health`` op reports
        ``degraded``/``breached`` with an overload-shed reason sourced
        at the front-end, and once the offending windows rotate out of
        the (test-sized) horizon the verdict returns to ``ok``."""
        from repro.obs import SLOConfig, WindowConfig

        # A short horizon so recovery happens in test time, but long
        # enough that reading the burst's responses cannot outlast it.
        interval = 0.25
        horizon = 2.0
        window = WindowConfig(interval_s=interval, slots=20)
        slo = SLOConfig(shed_rate=0.10, horizon_s=horizon)

        registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
        registry.register(app.dataset, app.item_index, name="paris")
        cluster = ShardCluster(
            shards=1,
            config=ShardConfig(scale=0.4, window=window, slo=slo),
            cities=["paris"], use_processes=False,
            service_factory=lambda shard_id: PackageService(
                registry, cache_capacity=32, window=window, slo=slo,
                shard=shard_id),
        )

        async def scenario():
            server = PackageServer(cluster, max_inflight=1,
                                   window=window, slo=slo)
            host, port = await server.start(port=0)
            reader, writer = await _client(host, port)
            try:
                # Pipelined burst: one request is admitted, the rest
                # shed immediately -- an induced overload.
                for i in range(12):
                    await _send_line(writer, {
                        "op": "build", "id": i,
                        "request": spec_payload("paris", seed=90 + i)})
                responses = [await _read_line(reader, timeout=60)
                             for _ in range(12)]
                shed = [r for r in responses
                        if r.get("code") == ErrorCode.OVERLOADED.value]
                assert len(shed) >= 8

                await _send_line(writer, {"op": "health"})
                overloaded = await _read_line(reader, timeout=30)
                verdict = overloaded["health"]
                assert verdict["state"] in ("degraded", "breached")
                reasons = [r for r in verdict["reasons"]
                           if r["slo"] == "shed_rate"]
                assert reasons and reasons[0]["source"] == "frontend"
                assert overloaded["frontend"]["state"] == verdict["state"]

                # Recovery: past the horizon the shed windows no longer
                # count, and an idle-or-quiet service is ok again.
                await asyncio.sleep(horizon + 2 * interval)
                await _send_line(writer, {"op": "health"})
                recovered = await _read_line(reader, timeout=30)
                assert recovered["health"]["state"] == "ok"
            finally:
                writer.close()
                await writer.wait_closed()
                await server.drain(timeout=2)

        try:
            asyncio.run(scenario())
        finally:
            cluster.shutdown()
