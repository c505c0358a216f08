"""A reprice costs what it touches.

Three contracts of the reprice path:

* **Derived datasets.**  ``Mutation.apply`` derives the next
  ``POIDataset`` from the previous one's indexes.  After any sequence of
  reprices, closes and adds it equals a fresh ``POIDataset`` over the
  same POI list: ids in order, category views, lookups, length and the
  distance normalizer.
* **Re-read replay = forced rebuild.**  A session replayed onto a newer
  epoch by re-reading its base package's rows serves, byte for byte,
  the reply a replay that rebuilds serves (``replay_oracle``), over
  budgets absent and binding, refined and unrefined profiles, REMOVE,
  REPLACE, ADD and GENERATE logs, and reprices mixed with closes and
  adds.  Only the replay of an unbudgeted, unrefined session across
  reprices skips the build.
* **Long journals.**  A restart replays a ~1,000-record journal into
  the city a fresh ``replay(base, journal)`` registration serves.
"""

from __future__ import annotations

import copy
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_poi
from replay_oracle import RebuildingService
from repro.core.query import GroupQuery
from repro.data.dataset import POIDataset
from repro.data.poi import CATEGORIES, POI, Category
from repro.live import AddPoi, ClosePoi, MutationLog, RepricePoi
from repro.service import BuildRequest, CityRegistry, GroupSpec, PackageService
from repro.service.engine import StaleEpochError
from repro.store import AssetStore

#: Reply keys that differ between two services serving the same state.
VOLATILE = ("latency_ms", "trace_id")

#: Budgets a property session draws: none, and two that bind on the
#: small Paris (a default-query CI costs about 30 without a budget;
#: the cheapest conforming one about 7).
BUDGETS = (None, 20.0, 26.0)


def canonical(reply: dict) -> str:
    return json.dumps({k: v for k, v in reply.items() if k not in VOLATILE},
                      sort_keys=True)


def package_json(package) -> str:
    return json.dumps(package.to_dict(), sort_keys=True)


# -- derived datasets ----------------------------------------------------------

def _lattice_city(per_category: int) -> POIDataset:
    pois = []
    for c, cat in enumerate(CATEGORIES):
        for j in range(per_category):
            i = c * per_category + j
            pois.append(make_poi(i, cat, lat=48.80 + 0.003 * (i % 7),
                                 lon=2.30 + 0.004 * (i % 5),
                                 cost=1.0 + i % 4))
    return POIDataset(pois, city="lattice")


def _assert_equals_fresh(derived: POIDataset, model: list[POI]) -> None:
    fresh = POIDataset(list(derived), city=derived.city)
    assert [p.id for p in derived] == [p.id for p in model]
    assert all(a is b for a, b in zip(derived, model))
    assert derived.ids == fresh.ids
    assert len(derived) == len(fresh) == len(model)
    for cat in CATEGORIES:
        assert derived.by_category(cat) == fresh.by_category(cat)
        assert all(a is b for a, b in zip(derived.by_category(cat),
                                           fresh.by_category(cat)))
    assert derived.category_counts() == fresh.category_counts()
    for poi in model:
        assert derived[poi.id] is poi and poi.id in derived
    assert derived.max_distance_km == fresh.max_distance_km
    assert derived.to_json() == fresh.to_json()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), per_category=st.integers(1, 4))
def test_derived_datasets_equal_a_fresh_dataset(data, per_category):
    dataset = _lattice_city(per_category)
    model = list(dataset)
    next_id = 1000
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        kind = data.draw(st.sampled_from(["reprice", "close", "add",
                                          "normalizer"]))
        if kind == "normalizer":
            # Computed between steps, so a reprice has one to carry.
            assert dataset.max_distance_km >= 0.0
            continue
        if kind == "add" or (kind == "close" and len(model) == 1):
            cat = data.draw(st.sampled_from(CATEGORIES))
            poi = make_poi(next_id, cat,
                           lat=data.draw(st.floats(48.7, 48.9)),
                           lon=data.draw(st.floats(2.2, 2.4)),
                           cost=data.draw(st.floats(0.0, 50.0)))
            next_id += 1
            dataset = AddPoi(poi=poi).apply(dataset)
            model.append(poi)
        else:
            at = data.draw(st.integers(0, len(model) - 1))
            poi_id = model[at].id
            if kind == "close":
                dataset = ClosePoi(poi_id=poi_id).apply(dataset)
                del model[at]
            else:
                cost = data.draw(st.floats(0.0, 50.0))
                dataset = RepricePoi(poi_id=poi_id, cost=cost).apply(dataset)
                model[at] = dataset[poi_id]
                assert model[at].cost == cost
        _assert_equals_fresh(dataset, model)


def test_derivation_leaves_its_source_untouched():
    dataset = _lattice_city(3)
    before = dataset.to_json()
    poi = dataset[0]
    dataset.repriced(0, 9.5)
    dataset.without_poi(0)
    dataset.with_poi(make_poi(999, poi.cat))
    assert dataset.to_json() == before and dataset[0] is poi


def test_derivation_refuses_unknown_and_duplicate_ids():
    dataset = _lattice_city(2)
    with pytest.raises(KeyError):
        dataset.without_poi(12345)
    with pytest.raises(KeyError):
        dataset.repriced(12345, 1.0)
    with pytest.raises(ValueError):
        dataset.with_poi(make_poi(0, Category.RESTAURANT))


def test_a_reprice_carries_the_normalizer_and_a_close_drops_it():
    dataset = _lattice_city(3)
    normalizer = dataset.max_distance_km
    assert dataset.repriced(1, 7.0)._max_distance == normalizer
    assert dataset.without_poi(1)._max_distance is None
    assert dataset.with_poi(make_poi(999))._max_distance is None


# -- re-read replay = forced rebuild -------------------------------------------

def _services(app):
    """One registry over the small Paris, served by the real service
    and by the forced-rebuild oracle: both see every mutation."""
    registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
    registry.register(app.dataset, copy.deepcopy(app.item_index),
                      name="paris")
    return registry, PackageService(registry), RebuildingService(registry)


def _open(services, spec_seed: int, budget: float | None) -> dict:
    request = {"city": "paris", "group_spec": {"size": 3, "seed": spec_seed},
               "query": {"counts": {"acco": 1, "trans": 1, "rest": 1,
                                    "attr": 3}, "budget": budget}}
    replies = [svc.dispatch("open_session", dict(request))
               for svc in services]
    assert replies[0]["error"] is None, replies[0]["error"]
    assert canonical(replies[0]) == canonical(replies[1])
    return replies[0]


def _draw_edit(data, package: dict, dataset: POIDataset,
               sid: str) -> dict | None:
    cis = package["composite_items"]
    ci = data.draw(st.integers(0, len(cis) - 1), label="ci")
    members = [p["id"] for p in cis[ci]["pois"]]
    op = data.draw(st.sampled_from(["remove", "replace", "add", "generate"]))
    edit = {"session_id": sid, "op": op, "ci_index": ci}
    if op in ("remove", "replace"):
        if not members:
            return None
        edit["poi_id"] = data.draw(st.sampled_from(members), label="poi")
    elif op == "add":
        outside = [i for i in dataset.ids if i not in members]
        edit["add_poi_id"] = data.draw(st.sampled_from(outside), label="add")
    else:
        anchor = dataset[data.draw(st.sampled_from(dataset.ids),
                                   label="anchor")]
        edit["rect"] = [anchor.lat + 0.005, anchor.lon - 0.005, 0.01, 0.01]
    return edit


def _draw_mutation(data, registry, package: dict, fresh_ids):
    dataset = registry.dataset("paris")
    in_package = sorted({p["id"] for ci in package["composite_items"]
                         for p in ci["pois"]} & set(dataset.ids))
    kind = data.draw(st.sampled_from(["reprice", "reprice", "reprice",
                                      "close", "add"]), label="mutation")
    if kind == "reprice":
        pool = in_package or sorted(dataset.ids)
        poi_id = data.draw(st.sampled_from(pool), label="repriced")
        return RepricePoi(poi_id=poi_id, cost=data.draw(
            st.sampled_from([0.25, 3.0, 9.5]), label="cost"))
    if kind == "close":
        closable = [p.id for p in dataset
                    if len(dataset.by_category(p.cat)) > 8]
        return ClosePoi(poi_id=data.draw(st.sampled_from(closable),
                                         label="closed"))
    like = dataset[data.draw(st.sampled_from(sorted(dataset.ids)),
                             label="like")]
    return AddPoi(poi=make_poi(next(fresh_ids), like.cat, lat=like.lat,
                               lon=like.lon + 0.001, cost=like.cost,
                               poi_type=like.type, tags=like.tags))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data(), spec_seed=st.integers(0, 5),
       budget=st.sampled_from(BUDGETS))
def test_reread_replay_serves_the_forced_rebuild_reply(app, data, spec_seed,
                                                       budget):
    registry, fast, oracle = _services(app)
    services = (fast, oracle)
    opened = _open(services, spec_seed, budget)
    sid, package = opened["session_id"], opened["package"]
    fresh_ids = iter(range(10 ** 6, 10 ** 6 + 100))

    def edit():
        nonlocal package
        payload = _draw_edit(data, package, registry.dataset("paris"), sid)
        if payload is None:
            return
        replies = [svc.dispatch("customize", dict(payload))
                   for svc in services]
        assert canonical(replies[0]) == canonical(replies[1])
        if replies[0]["package"] is not None:
            package = replies[0]["package"]

    def refine():
        refined = []
        for svc in services:
            try:
                refined.append(svc.refine(sid).to_dict())
            except StaleEpochError:
                refined.append("stale_epoch")
        assert refined[0] == refined[1]

    def mutate():
        registry.mutate("paris", _draw_mutation(data, registry, package,
                                                fresh_ids))

    # A few edits, maybe a refinement of their log, then any mix: so
    # refine -> reprice -> edit sequences are common.
    for _ in range(data.draw(st.integers(0, 2), label="first edits")):
        edit()
    if data.draw(st.booleans(), label="refine first"):
        refine()
    for _ in range(data.draw(st.integers(2, 10), label="steps")):
        data.draw(st.sampled_from([edit, edit, mutate, mutate, refine]),
                  label="step")()


def _assemble_count(service) -> int:
    stages = service.stats()["obs"]["stages"]
    return stages["assemble"]["count"] if stages.get("assemble") else 0


def _replay_after_reprice(app, budget=None, refine=False):
    """Open a session on both services, edit it, optionally refine,
    reprice one of its POIs, edit again; the two replies and how many
    builds each service ran."""
    registry, fast, oracle = _services(app)
    opened = _open((fast, oracle), 3, budget)
    sid, package = opened["session_id"], opened["package"]
    first = package["composite_items"][0]["pois"][0]["id"]
    edit = {"session_id": sid, "op": "remove", "ci_index": 0,
            "poi_id": first}
    replies = [svc.dispatch("customize", dict(edit)) for svc in (fast, oracle)]
    assert canonical(replies[0]) == canonical(replies[1])
    if refine:
        assert fast.refine(sid).to_dict() == oracle.refine(sid).to_dict()
    builds = [_assemble_count(svc) for svc in (fast, oracle)]
    target = package["composite_items"][1]["pois"][0]["id"]
    registry.mutate("paris", RepricePoi(poi_id=target, cost=9.0))
    edit = {"session_id": sid, "op": "replace", "ci_index": 1,
            "poi_id": package["composite_items"][1]["pois"][1]["id"]}
    replies = [svc.dispatch("customize", dict(edit)) for svc in (fast, oracle)]
    assert canonical(replies[0]) == canonical(replies[1])
    after = [_assemble_count(svc) for svc in (fast, oracle)]
    return [a - b for a, b in zip(after, builds)], fast, replies[0]


def test_an_unbudgeted_reprice_replay_builds_nothing(app):
    builds, fast, reply = _replay_after_reprice(app)
    assert reply["error"] is None, reply["error"]
    assert builds == [0, 1]
    assert fast.stats()["live"]["sessions_replayed"] == 1


@pytest.mark.parametrize("budget, refine", [(26.0, False), (None, True)])
def test_a_budget_or_a_refined_profile_still_rebuilds(app, budget, refine):
    # The rebuilt package may no longer hold an edited POI (a
    # ``stale_epoch`` reply); either way both services agree.
    builds, _, _ = _replay_after_reprice(app, budget=budget, refine=refine)
    assert builds == [1, 1]


def test_a_close_forces_the_next_reprice_replay_to_rebuild(app):
    """After a close the rows moved: the layout epoch passes the
    session's base, and even a reprice-only stretch after the rebuilt
    base re-reads that new base, not the first one."""
    registry, fast, oracle = _services(app)
    opened = _open((fast, oracle), 4, None)
    sid, package = opened["session_id"], opened["package"]
    in_package = {p["id"] for ci in package["composite_items"]
                  for p in ci["pois"]}
    dataset = registry.dataset("paris")
    closed = next(p.id for p in dataset if p.id not in in_package)
    registry.mutate("paris", ClosePoi(poi_id=closed))
    assert registry.entry("paris").layout_epoch == 1
    before = _assemble_count(fast)
    payload = {"session_id": sid, "op": "remove", "ci_index": 0,
               "poi_id": package["composite_items"][0]["pois"][0]["id"]}
    replies = [svc.dispatch("customize", dict(payload))
               for svc in (fast, oracle)]
    assert canonical(replies[0]) == canonical(replies[1])
    assert _assemble_count(fast) == before + 1
    registry.mutate("paris", RepricePoi(poi_id=next(iter(in_package)),
                                        cost=0.5))
    assert registry.entry("paris").layout_epoch == 1
    payload = {"session_id": sid, "op": "remove", "ci_index": 1,
               "poi_id": package["composite_items"][1]["pois"][0]["id"]}
    replies = [svc.dispatch("customize", dict(payload))
               for svc in (fast, oracle)]
    assert canonical(replies[0]) == canonical(replies[1])
    assert _assemble_count(fast) == before + 1


def test_a_rebuild_is_the_base_a_replay_starts_from(app):
    """A replay after ``rebuild`` used to rebuild the opening request
    and re-apply the pre-rebuild edits, so the rebuilt query's shape
    was lost at the next reprice.  Now the rebuild is the base: the
    reply keeps its shape, equals the forced-rebuild reply, and the
    pre-rebuild interactions stay for refinement."""
    registry, fast, oracle = _services(app)
    services = (fast, oracle)
    opened = _open(services, 3, None)
    sid, package = opened["session_id"], opened["package"]
    first = {"session_id": sid, "op": "remove", "ci_index": 0,
             "poi_id": package["composite_items"][0]["pois"][0]["id"]}
    for svc in services:
        assert svc.dispatch("customize", dict(first))["error"] is None
    query = GroupQuery.of(acco=1, attr=2)
    rebuilt = [svc.rebuild(sid, query).to_dict() for svc in services]
    assert rebuilt[0]["error"] is None, rebuilt[0]["error"]
    assert canonical(rebuilt[0]) == canonical(rebuilt[1])
    package = rebuilt[0]["package"]
    served = package["composite_items"][1]["pois"][0]["id"]
    registry.mutate("paris", RepricePoi(poi_id=served, cost=9.0))
    edit = {"session_id": sid, "op": "remove", "ci_index": 0,
            "poi_id": package["composite_items"][0]["pois"][0]["id"]}
    replies = [svc.dispatch("customize", dict(edit)) for svc in services]
    assert replies[0]["error"] is None, replies[0]["error"]
    assert canonical(replies[0]) == canonical(replies[1])
    served = replies[0]["package"]
    assert served["query"] == query.to_dict()
    for index, ci in enumerate(served["composite_items"]):
        cats = sorted(p["cat"] for p in ci["pois"])
        assert cats == (["attr", "attr"] if index == 0
                        else ["acco", "attr", "attr"])
    for svc in services:
        assert len(svc.interactions(sid)) == 2


# -- long journals ---------------------------------------------------------------

def test_a_thousand_record_journal_reloads_as_its_replay(tmp_path):
    fast = dict(seed=11, scale=0.1, lda_iterations=6)
    root = tmp_path / "assets"
    registry = CityRegistry(store=AssetStore(root), **fast)
    base = registry.entry("paris")
    base_dataset, base_index = base.dataset, copy.deepcopy(base.item_index)
    rng = random.Random(2019)
    opened: list[int] = []
    for i in range(1000):
        dataset = registry.dataset("paris")
        if i % 40 == 20:
            like = dataset[rng.choice(sorted(dataset.ids))]
            poi = make_poi(10 ** 6 + i, like.cat, lat=like.lat + 1e-3,
                           lon=like.lon, cost=like.cost, poi_type=like.type,
                           tags=like.tags)
            registry.mutate("paris", AddPoi(poi=poi))
            opened.append(poi.id)
        elif i % 40 == 30 and opened:
            registry.mutate("paris", ClosePoi(poi_id=opened.pop(0)))
        else:
            registry.mutate("paris", RepricePoi(
                poi_id=rng.choice(sorted(dataset.ids)),
                cost=round(rng.uniform(0.5, 9.5), 3)))
    journal = registry.mutation_log("paris").entries
    assert len(journal) == 1000

    restarted = CityRegistry(store=AssetStore(root), **fast)
    entry = restarted.entry("paris")
    replayed = MutationLog("paris", 1024, journal).replay(base_dataset)
    assert entry.epoch == 1000
    assert entry.dataset.to_json() == replayed.to_json()
    # The journal ends in 9 reprices (the last close was record 990).
    assert entry.layout_epoch == 991

    for mutation in journal:
        if isinstance(mutation, AddPoi):
            base_index.extend_with(mutation.poi, seed=fast["seed"])
    model = CityRegistry(**fast)
    model.register(POIDataset(list(replayed), city="model"), base_index,
                   name="paris")
    served, expected = PackageService(restarted), PackageService(model)
    for spec_seed, budget in ((1, None), (2, 24.0), (3, None)):
        query = {"counts": {"acco": 1, "trans": 1, "rest": 1, "attr": 3},
                 "budget": budget}
        request = BuildRequest.from_dict({
            "city": "paris", "group_spec": {"size": 3, "seed": spec_seed},
            "query": query, "k": 3})
        got, want = served.build(request), expected.build(request)
        assert got.ok and want.ok, (got.error, want.error)
        assert package_json(got.package) == package_json(want.package)


def test_a_restart_adopting_a_reprice_journal_keeps_its_layout(tmp_path):
    """Epoch and journal index differ by the adoption offset; the layout
    epoch counts the journal's trailing reprices from the epoch."""
    fast = dict(seed=11, scale=0.1, lda_iterations=6)
    root = tmp_path / "assets"
    registry = CityRegistry(store=AssetStore(root), **fast)
    poi = next(iter(registry.dataset("paris")))
    registry.mutate("paris", ClosePoi(poi_id=poi.id))
    for cost in (1.0, 2.0, 3.0):
        other = next(iter(registry.dataset("paris")))
        registry.mutate("paris", RepricePoi(poi_id=other.id, cost=cost))
    assert registry.entry("paris").layout_epoch == 1
    restarted = CityRegistry(store=AssetStore(root), **fast)
    entry = restarted.entry("paris")
    assert (entry.epoch, entry.layout_epoch) == (4, 1)
    receipt = restarted.mutate("paris", RepricePoi(poi_id=other.id,
                                                   cost=4.0))
    assert receipt["epoch"] == 5
    assert restarted.entry("paris").layout_epoch == 1
    restarted.register(restarted.dataset("paris"))
    assert restarted.entry("paris").layout_epoch == 6


def test_a_session_on_a_restarted_city_rereads_across_reprices(tmp_path):
    fast = dict(seed=11, scale=0.1, lda_iterations=6)
    root = tmp_path / "assets"
    registry = CityRegistry(store=AssetStore(root), **fast)
    for cost in (1.0, 2.0):
        poi = next(iter(registry.dataset("paris")))
        registry.mutate("paris", RepricePoi(poi_id=poi.id, cost=cost))
    restarted = CityRegistry(store=AssetStore(root), **fast)
    service, oracle = PackageService(restarted), RebuildingService(restarted)
    request = BuildRequest(city="paris", k=3,
                           group_spec=GroupSpec(size=3, seed=1))
    opened = [svc.open_session(request) for svc in (service, oracle)]
    assert all(r.ok for r in opened)
    victim = opened[0].package.composite_items[0].pois[0]
    restarted.mutate("paris", RepricePoi(poi_id=victim.id, cost=8.0))
    before = _assemble_count(service)
    edit = {"session_id": opened[0].session_id, "op": "remove",
            "ci_index": 0, "poi_id": victim.id}
    replies = [svc.dispatch("customize", dict(edit))
               for svc in (service, oracle)]
    assert canonical(replies[0]) == canonical(replies[1])
    assert _assemble_count(service) == before
