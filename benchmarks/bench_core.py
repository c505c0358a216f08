"""Micro-benchmarks of the core building blocks.

Not a paper table, but the numbers downstream users care about: how
long one KFC package build takes, how fuzzy c-means scales, the
throughput of CI assembly and consensus aggregation.  Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_core.py -q
-o python_files="bench_*.py"``.  End-to-end serving numbers come from
``perfbench/run.py``.
"""

import numpy as np
import pytest

from repro.clustering.fuzzy_cmeans import FuzzyCMeans
from repro.core.assembly import assemble_composite_item
from repro.core.query import DEFAULT_QUERY
from repro.profiles.consensus import ConsensusMethod, consensus_scores


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
        assemble_composite_item,
        paris_app.dataset, (float(center[0]), float(center[1])),
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


def test_spatial_grid_nearest(benchmark, paris_app):
    dataset = paris_app.dataset
    grid = dataset.grid
    lat, lon = dataset.coordinates().mean(axis=0)
    benchmark(grid.nearest, float(lat), float(lon), 10)
