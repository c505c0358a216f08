"""Micro-benchmarks of the core building blocks.

Not a paper table, but the numbers downstream users care about: how
long one KFC package build takes, how fuzzy c-means scales, the
throughput of CI assembly and consensus aggregation, and the latency of
the system's REPLACE recommendation.  Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_core.py -q
-o python_files="bench_*.py"``.  End-to-end serving numbers come from
``perfbench/run.py``.
"""

import json
import sys
import timeit
from pathlib import Path

import numpy as np
import pytest

from repro.clustering.fuzzy_cmeans import FuzzyCMeans
from repro.core.assembly import assemble_composite_items
from repro.core.query import DEFAULT_QUERY
from repro.profiles.consensus import ConsensusMethod, consensus_scores
from repro.profiles.generator import GroupGenerator
from repro.service.schema import Encoded

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import profile_oracle  # noqa: E402  (the per-member reference)

#: A build miss encodes its package text by splicing the POIs' cached
#: JSON texts; the gate holds that splice to at least this many times
#: faster than ``json.dumps(package.to_dict())``.  Measured on a 2-vCPU
#: VM (Python 3.11.7) for a 5-CI Paris package: the splice 5-7x, the
#: whole wire form a miss caches (the dict, which the splice does not
#: read, plus the splice) 3-4.4x.
MIN_SPLICE_SPEEDUP = 3.0

#: A non-uniform member is an indicator row drawn as its picked columns,
#: so a 5-member non-uniform group's matrix costs little more than its
#: draws; the gate holds it to at least this many times faster than the
#: per-member oracle (``tests/profile_oracle.py``).  Measured on a 2-vCPU
#: VM (Python 3.11.7) over 200 seeds: 9x, against 1.4x for the float
#: admission it replaced.
MIN_MEMBER_MATRIX_SPEEDUP = 4.0


@pytest.fixture(scope="module")
def paris_app(bench_ctx):
    return bench_ctx.app("paris")


@pytest.fixture(scope="module")
def group_profile(bench_ctx, paris_app):
    group = bench_ctx.generator(salt=99).uniform_group(5)
    return group.profile(ConsensusMethod.PAIRWISE_DISAGREEMENT)


def test_kfc_build(benchmark, paris_app, group_profile):
    benchmark(paris_app.kfc.build, group_profile, DEFAULT_QUERY)


def test_ci_assembly_arrays(benchmark, paris_app, group_profile):
    center = paris_app.dataset.coordinates().mean(axis=0)
    benchmark(
        assemble_composite_items,
        paris_app.dataset, [(float(center[0]), float(center[1]))],
        DEFAULT_QUERY, group_profile, paris_app.item_index,
        arrays=paris_app.arrays,
    )


def test_fuzzy_cmeans(benchmark, paris_app):
    coords = paris_app.dataset.coordinates()
    fcm = FuzzyCMeans(n_clusters=5, seed=3)
    benchmark(fcm.fit, coords)


def test_consensus_aggregation(benchmark):
    rng = np.random.default_rng(0)
    members = rng.uniform(size=(100, 8))
    benchmark(consensus_scores, members,
              ConsensusMethod.PAIRWISE_DISAGREEMENT)


def test_recommend_replacement(benchmark, paris_app, group_profile):
    session = paris_app.customize(
        paris_app.kfc.build(group_profile, DEFAULT_QUERY), group_profile)
    target = session.package[0].pois[0]
    assert benchmark(session.recommend_replacement, 0, target.id) is not None


def test_spliced_package_encode_gate(paris_app, group_profile):
    """A built 5-CI package's text spliced from the POIs' cached texts
    against ``json.dumps`` of its dict, best of seven blocks each; the
    whole wire form a miss caches is printed beside them."""
    package = paris_app.kfc.build(group_profile, DEFAULT_QUERY)
    assert package.k == 5
    wire = Encoded.spliced(package.to_dict(), package.to_json())
    assert wire.json == json.dumps(package.to_dict())

    def best(fn) -> float:
        return min(timeit.repeat(fn, number=200, repeat=7)) / 200

    spliced = best(package.to_json)
    dumped = best(lambda: json.dumps(package.to_dict()))
    whole = best(lambda: Encoded.spliced(package.to_dict(),
                                         package.to_json()))
    print(f"\nspliced encode {spliced * 1e6:.1f} us, json.dumps(to_dict) "
          f"{dumped * 1e6:.1f} us: {dumped / spliced:.1f}x (wire form "
          f"{whole * 1e6:.1f} us: {dumped / whole:.1f}x)")
    assert dumped / spliced >= MIN_SPLICE_SPEEDUP, (
        f"spliced encode only {dumped / spliced:.1f}x faster than "
        f"json.dumps(package.to_dict()), below {MIN_SPLICE_SPEEDUP}x")


def test_non_uniform_member_matrix_gate(paris_app):
    """A 5-member non-uniform group's member matrix against the
    per-member oracle's group, per group over 200 seeds, best of five
    alternating blocks; both draw the same members."""
    schema = paris_app.schema
    seeds = range(200)
    for seed in seeds[:5]:
        expected = profile_oracle.group(
            profile_oracle.Generator(schema, seed=seed), 5, False)
        assert (GroupGenerator(schema, seed=seed).member_matrix(5, False)
                .tobytes() == np.vstack([m.concatenated()
                                         for m in expected]).tobytes())

    def matrices():
        for seed in seeds:
            GroupGenerator(schema, seed=seed).member_matrix(5, False)

    def oracle():
        for seed in seeds:
            profile_oracle.group(profile_oracle.Generator(schema, seed=seed),
                                 5, False)

    fast = slow = float("inf")
    for _ in range(5):
        fast = min(fast, timeit.timeit(matrices, number=1) / len(seeds))
        slow = min(slow, timeit.timeit(oracle, number=1) / len(seeds))
    print(f"\nnon-uniform member_matrix(5) {fast * 1e6:.1f} us, oracle group "
          f"{slow * 1e6:.1f} us: {slow / fast:.1f}x")
    assert slow / fast >= MIN_MEMBER_MATRIX_SPEEDUP, (
        f"member_matrix only {slow / fast:.1f}x faster than the oracle, "
        f"below {MIN_MEMBER_MATRIX_SPEEDUP}x")
