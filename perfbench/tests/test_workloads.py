"""Seed contract of the benchmark's request plans.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
These tests need neither the program nor a fitted city.
"""

import itertools
import json

import pytest

from perfbench import workloads

HEAD = 400


def _head(workload: str, seed: int) -> list[list[dict]]:
    return list(itertools.islice(workloads.units(workload, seed), HEAD))


def _bytes(units) -> bytes:
    return json.dumps(units, sort_keys=True).encode()


def _cadence(units) -> list[tuple]:
    """Op kinds in order, with the features the cadence fixes."""
    out = []
    for unit in units:
        for step in unit:
            request = step.get("request", {})
            query = request.get("query") or {}
            out.append((step["op"], step.get("edit"), step.get("kind"),
                        "pool" in step, (query.get("counts") or {}).get("attr"),
                        query.get("budget") is not None,
                        (request.get("group_spec") or {}).get("uniform")))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes(workload):
    assert _bytes(_head(workload, 7)) == _bytes(_head(workload, 7))
    if workload == "warm_hit":
        assert _bytes(workloads.warm_pool(7)) == _bytes(workloads.warm_pool(7))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_same_cadence_other_inputs(workload):
    a, b = _head(workload, 7), _head(workload, 8)
    assert _cadence(a) == _cadence(b)
    assert _bytes(a) != _bytes(b)


def test_cold_specs_never_repeat():
    seeds = [unit[0]["request"]["group_spec"]["seed"]
             for unit in workloads.units("cold_build", 3)]
    assert len(seeds) == workloads.PLAN_UNITS["cold_build"]
    assert len(set(seeds)) == len(seeds)


def test_cold_cadence():
    units = _head("cold_build", 3)[:32]
    budgeted = [u[0]["request"]["query"]["budget"] is not None for u in units]
    assert budgeted == [i % 4 == 3 for i in range(32)]
    attrs = {u[0]["request"]["query"]["counts"]["attr"] for u in units}
    assert attrs == {2, 3, 4, 5}


def test_live_plan_stays_under_the_mutation_journal():
    mutations = sum(1 for unit in workloads.units("live_edit", 3)
                    for step in unit if step["op"] == "mutate")
    assert mutations < 1024


def _package() -> dict:
    def poi(pid):
        return {"id": pid, "name": f"p{pid}", "cat": "attr", "lat": 48.85,
                "lon": 2.35, "type": "museum", "tags": ["art"], "cost": 4.0}
    return {"composite_items": [{"pois": [poi(10 * ci + j) for j in range(6)],
                                 "centroid": [48.85, 2.35]}
                                for ci in range(5)],
            "query": None}


def test_resolution_is_a_function_of_step_and_package():
    cycle = next(iter(workloads.units("live_edit", 5)))

    def resolve_all():
        ctx = workloads.Context()
        ctx.package, ctx.session_id = _package(), "0/s1"
        return [workloads.encode(workloads.resolve(step, ctx))
                for step in cycle]

    first = resolve_all()
    assert first == resolve_all()
    ops = [json.loads(line)["op"] for line in first]
    assert ops[:6] == ["open_session", "customize", "mutate", "customize",
                       "customize", "close_session"]
    reopened = json.loads(first[-2])["request"]["mutation"]
    closed = json.loads(first[-1])["request"]["mutation"]
    assert reopened["kind"] == "add_poi" and closed["kind"] == "close_poi"
    assert reopened["poi"]["id"] == workloads.REOPEN_ID_BASE
    assert closed["poi_id"] == workloads.REOPENED["id"]


def test_reopen_pairs_close_the_previous_copy():
    """Every pair appends the same venue and closes its previous copy,
    so the city keeps one copy at the end of its list."""
    live = {workloads.REOPENED["id"]}
    for unit in _head("live_edit", 9):
        for step in unit:
            if step.get("kind") == "add_poi":
                assert step["poi"]["lat"] == workloads.REOPENED["lat"]
                live.add(step["poi"]["id"])
            elif step.get("kind") == "close_poi":
                live.remove(step["poi_id"])
        assert len(live) == 1


def test_add_takes_a_poi_the_target_ci_lacks():
    package = _package()
    for ci in range(5):
        target, poi_id = workloads._add_source(package, {"ci": ci, "pos": 0})
        ids = {p["id"] for p in package["composite_items"][target]["pois"]}
        assert poi_id not in ids


def test_warm_steps_name_the_primed_requests():
    pool = workloads.warm_pool(2)
    ctx = workloads.Context(pool)
    for unit in _head("warm_hit", 2)[:workloads.WARM_POOL]:
        envelope = workloads.resolve(unit[0], ctx)
        primed = pool[unit[0]["pool"]]["request"]
        assert {k: v for k, v in envelope["request"].items()
                if k != "request_id"} == {k: v for k, v in primed.items()
                                          if k != "request_id"}
    order = [u[0]["pool"] for u in _head("warm_hit", 2)[:workloads.WARM_POOL]]
    assert sorted(order) == list(range(workloads.WARM_POOL))
