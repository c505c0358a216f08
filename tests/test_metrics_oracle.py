"""The Section 4.2 metrics against ``tests/metrics_oracle.py``:
bit-identical (``float.hex``) for any package.

The array forms make one distance call per package and reuse each item
vector's memoized norm, so the packages are drawn to reach every case
that could tell them apart from the scalar loops: single-POI CIs (no
pairs), a POI shared by two CIs, ``k = 1`` (no centroid pairs), POIs
embedded by a live ``add_poi`` (new ids and a re-embedded one), and
item or profile vectors whose norms send ``cosine`` down its rescale
branch (tiny scales, all-zero categories).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_oracle
from repro.core.package import package_from_pois
from repro.data.poi import CATEGORIES, POI
from repro.metrics.dimensions import (
    cohesiveness,
    personalization,
    raw_cohesiveness_sum,
    representativity,
)
from repro.profiles.generator import GroupGenerator
from repro.profiles.group import GroupProfile
from repro.profiles.vectors import ItemVectorIndex

#: Far below ``cosine``'s norm range: the squares go subnormal.
TINY = 2.0 ** -530


@pytest.fixture(scope="module")
def city(app):
    """``(pois, index, tiny_index)``: the app's POIs plus live-added
    ones, an index that embedded them through ``extend_with`` (a
    private copy: the session's index stays pristine), and the same
    vectors scaled into ``cosine``'s rescale branch."""
    index = copy.deepcopy(app.item_index)
    pois = list(app.dataset)
    next_id = max(p.id for p in pois) + 1
    sources = [p for cat in CATEGORIES
               for p in app.dataset.by_category(cat)[:2]]
    added = [POI(id=next_id + offset, name=f"added-{offset}", cat=p.cat,
                 lat=p.lat + 0.003, lon=p.lon - 0.002, type=p.type,
                 tags=p.tags[::-1], cost=p.cost)
             for offset, p in enumerate(sources)]
    # A close-then-reopen re-embeds an existing id with other tags.
    reopened = app.dataset.by_category("rest")[3]
    added.append(POI(id=reopened.id, name=reopened.name, cat=reopened.cat,
                     lat=reopened.lat, lon=reopened.lon, type=reopened.type,
                     tags=("wine", "jazz", "terrace"), cost=reopened.cost))
    for seed, poi in enumerate(added):
        index.extend_with(poi, seed=seed)
    assert (index.vector(reopened).tobytes()
            != app.item_index.vector(reopened).tobytes())
    # Added POIs first: drawn indices lean small.
    pois = added + [p for p in pois if p.id != reopened.id]
    tiny = ItemVectorIndex(index.schema,
                           {p.id: index.vector(p) * TINY for p in pois}, {})
    return pois, index, tiny


@st.composite
def packages(draw, pois):
    """Lists of CIs (distinct POIs within a CI), sometimes sharing a
    POI between the first two."""
    k = draw(st.integers(1, 6))
    cis = []
    for _ in range(k):
        size = draw(st.integers(1, 8))
        picks = draw(st.lists(st.integers(0, len(pois) - 1), min_size=size,
                              max_size=size, unique=True))
        cis.append([pois[i] for i in picks])
    if k > 1 and draw(st.booleans()):
        shared = cis[0][0]
        if all(p.id != shared.id for p in cis[1]):
            cis[1].append(shared)
    return cis


def _profile(schema, seed: int, uniform: bool, scale: float,
             zero: int | None) -> GroupProfile:
    profile = GroupGenerator(schema, seed=seed).group(4, uniform).profile()
    vectors = {cat: profile.vector(cat) * scale for cat in CATEGORIES}
    if zero is not None:
        vectors[CATEGORIES[zero]] = np.zeros_like(vectors[CATEGORIES[zero]])
    return GroupProfile(schema, vectors)


def _same(got: float, expected: float) -> None:
    assert float.hex(got) == float.hex(expected)


class TestMetricsMatchOracle:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_distances(self, city, data):
        pois = city[0]
        cis = data.draw(packages(pois))
        package = package_from_pois(cis)
        centroids = package.centroids()
        _same(representativity(centroids),
              metrics_oracle.representativity(centroids))
        _same(raw_cohesiveness_sum(cis),
              metrics_oracle.raw_cohesiveness_sum(cis))
        _same(cohesiveness(cis, 123.25),
              123.25 - metrics_oracle.raw_cohesiveness_sum(cis))
        _same(package.representativity(),
              metrics_oracle.representativity(centroids))
        _same(package.raw_cohesiveness_sum(),
              metrics_oracle.raw_cohesiveness_sum(cis))
        for ci, pois_of_ci in zip(package, cis):
            _same(ci.internal_distance(),
                  metrics_oracle.raw_cohesiveness_sum([pois_of_ci]))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10 ** 6),
           uniform=st.booleans(), tiny_items=st.booleans(),
           profile_scale=st.sampled_from([1.0, TINY]),
           zero=st.one_of(st.none(), st.integers(0, 3)))
    def test_personalization(self, city, data, seed, uniform, tiny_items,
                             profile_scale, zero):
        pois, index, tiny = city
        index = tiny if tiny_items else index
        cis = data.draw(packages(pois))
        profile = _profile(index.schema, seed, uniform, profile_scale, zero)
        expected = metrics_oracle.personalization(cis, profile, index)
        _same(personalization(cis, profile, index), expected)
        _same(package_from_pois(cis).personalization(profile, index),
              expected)

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("tiny_items", [False, True])
    def test_every_poi_alone(self, city, uniform, tiny_items):
        """One-POI packages: the total is the single cosine term, so no
        rounding of a longer sum can hide a one-ulp difference."""
        pois, index, tiny = city
        index = tiny if tiny_items else index
        profile = _profile(index.schema, 11, uniform, 1.0, None)
        for poi in pois:
            _same(personalization([[poi]], profile, index),
                  metrics_oracle.personalization([[poi]], profile, index))

    def test_groups_larger_than_the_pair_cache(self, city):
        pois = city[0]
        cis = [pois[:40], pois[40:43], pois[43:90]]
        _same(raw_cohesiveness_sum(cis),
              metrics_oracle.raw_cohesiveness_sum(cis))
        centroids = np.array([[p.lat, p.lon] for p in pois[:45]])
        _same(representativity(centroids),
              metrics_oracle.representativity(centroids))

    def test_empty_inputs(self, city):
        _same(raw_cohesiveness_sum([]), 0.0)
        _same(representativity(np.empty((0, 2))), 0.0)
        _same(personalization([], _profile(city[1].schema, 1, True, 1.0,
                                           None), city[1]), 0.0)
