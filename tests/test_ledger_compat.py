"""The benchmark's layer ledger still sees every KFC assembly round.

``perfbench/ledger.py`` wraps ``repro.core.kfc.assemble_composite_items``
and ``KFCBuilder.place_centroids`` where their callers look them up, and
reads ``query.has_budget`` from the kernel's third positional argument.
A build that stopped calling the kernel through that module global, or
changed its argument order, would still build correct packages while
the traced ledger went blank.  The ledger is imported read-only from its
file, as ``test_benchpair.py`` imports the claim tool.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import repro.core.kfc as kfc
from repro.core.query import GroupQuery

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_ledger", ROOT / "perfbench" / "ledger.py")
ledger_module = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = ledger_module  # its dataclasses look it up
_spec.loader.exec_module(ledger_module)


@pytest.mark.parametrize("budget", [math.inf, 1e6])
def test_a_build_records_one_kernel_span_per_round(app, uniform_group,
                                                   budget):
    query = GroupQuery.of(acco=1, trans=1, rest=1, attr=3, budget=budget)
    kernel = kfc.assemble_composite_items
    ledger = ledger_module.Ledger()
    ledger.install()
    try:
        app.kfc.build(uniform_group.profile(), query)
    finally:
        ledger.remove()
    assert kfc.assemble_composite_items is kernel
    rounds = [s for s in ledger.spans if s.name == "assembly.kernel"]
    assert len(rounds) == 1 + app.kfc.refine_iterations == 3
    assert [s.attrs["budgeted"] for s in rounds] == [query.has_budget] * 3
    seeding = [s for s in ledger.spans if s.name == "kfc.place_centroids"]
    assert len(seeding) == 1
    assert set(seeding[0].attrs) == {"fit"}


class _Sink:
    """Stands in for the connection's ``StreamWriter``."""

    data = b""

    def is_closing(self) -> bool:
        return False

    def write(self, data: bytes) -> None:
        self.data = data

    async def drain(self) -> None:
        return None


def test_live_edit_records_a_finite_ledger(tmp_path):
    """With a store attached, a reprice, a close and an add each record
    ``registry.mutate``, ``live.patch`` and ``store.save``; every
    ``live_edit`` layer figure is finite (a missing span reads NaN, and
    the benchmark refuses a traced run with a NaN figure)."""
    import asyncio
    import json

    from repro.service.server import PackageServer
    from repro.service.shard import ShardCluster, ShardConfig

    cluster = ShardCluster(
        shards=1, cities=["paris"], use_processes=False,
        config=ShardConfig(seed=11, scale=0.1, lda_iterations=6,
                           store_path=str(tmp_path / "assets")))
    server = PackageServer(cluster)
    ledger = ledger_module.Ledger()
    ids = iter(range(1, 100))

    async def send(wire_op: str, **request) -> dict:
        rid = f"r{next(ids)}"
        line = json.dumps({"op": wire_op, "request": dict(
            request, request_id=rid)}).encode() + b"\n"
        root = ledger.begin_request(rid)
        sink = _Sink()
        server._responding += 1
        await server._process_line(line, sink, asyncio.Lock())
        ledger.close(root)
        response = json.loads(sink.data)
        assert not response.get("error"), response
        return response

    async def drive() -> None:
        build = {"city": "paris", "group_spec": {"size": 3, "seed": 1}}
        opened = await send("open_session", **build)
        sid, cis = opened["session_id"], opened["package"]["composite_items"]
        first, second = cis[0]["pois"], cis[1]["pois"]
        await send("customize", session_id=sid, op="replace", ci_index=0,
                   poi_id=first[0]["id"])
        await send("customize", session_id=sid, op="remove", ci_index=1,
                   poi_id=second[0]["id"])
        await send("customize", session_id=sid, op="add", ci_index=1,
                   add_poi_id=second[0]["id"])
        poi = first[-1]
        await send("mutate", city="paris", mutation={
            "kind": "reprice_poi", "poi_id": poi["id"],
            "cost": poi["cost"] + 1.0})
        await send("mutate", city="paris", mutation={
            "kind": "close_poi", "poi_id": poi["id"]})
        await send("mutate", city="paris", mutation={
            "kind": "add_poi", "poi": dict(poi, id=10 ** 6)})
        await send("customize", session_id=sid, op="remove", ci_index=1,
                   poi_id=second[1]["id"])
        await send("close_session", session_id=sid)

    try:
        asyncio.run(send("warmup", cities=["paris"]))
        ledger.install()
        try:
            asyncio.run(drive())
        finally:
            ledger.remove()
        live = cluster.stats()["live"]
    finally:
        cluster.shutdown()
        server.tracer.close()

    spans = ledger.spans
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    mutates = [s for s in spans if s.name == "registry.mutate"]
    assert [s.attrs["kind"] for s in mutates] == [
        "reprice_poi", "close_poi", "add_poi"]
    for span in mutates:
        below = {c.name: c for c in children[span.sid]}
        assert below["live.patch"].attrs["kind"] == span.attrs["kind"]
        assert "store.save" in below
        nested = [c.name for c in children.get(below["live.patch"].sid, ())]
        assert ("geo.max_pairwise" in nested) == (
            span.attrs["kind"] != "reprice_poi")
    saves = [s for s in spans if s.name == "store.save"]
    assert len(saves) == 3
    assert all(s.attrs["bytes"] > 0 for s in saves)
    figures = ledger_module.layer_metrics("live_edit", spans, {"live": live})
    assert not [name for name, (value, _) in figures.items()
                if not math.isfinite(value)]
