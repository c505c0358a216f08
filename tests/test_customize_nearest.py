"""Nearest-POI queries of the customization operators.

REPLACE recommends the closest same-category POI that is not in the
CI; the ADD pick list is the closest POIs to the CI's centroid that
match a category/type filter.  Both run one vectorized distance pass
over the session's :class:`~repro.core.arrays.CityArrays` columns and
order by ``(distance, id)``.  The oracle (``tests/geo_oracle.py``)
scores every POI with one scalar ``equirectangular_km`` call and sorts
the pairs, so ``==`` against it pins the tie rule and the float
rounding of the vectorized pass.

The property draws small cities on a coarse lattice (coinciding POIs
and equidistant neighbours, so distances tie), mutates them through
:meth:`CityRegistry.mutate` and queries every epoch's patched bundle:
a row of that bundle out of step with the dataset shows up as a wrong
suggestion.
"""

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrays import CityArrays
from repro.core.composite import CompositeItem
from repro.core.customize import CustomizationSession
from repro.core.package import TravelPackage
from repro.data.dataset import POIDataset
from repro.data.poi import CATEGORIES, Category
from repro.live import AddPoi, ClosePoi, RepricePoi
from repro.service import CityRegistry

from conftest import make_poi
from geo_oracle import nearest_pois

LAT0, LON0, STEP = 48.85, 2.35, 0.002
CITY = "lattice"


def relocated(app, placements) -> POIDataset:
    """A city of ``app``'s POIs moved to ``(cat, lat, lon)`` placements:
    the i-th placement of a category takes that category's i-th POI,
    so every row keeps its fitted item vector."""
    taken: dict[Category, int] = {}
    pois = []
    for cat, lat, lon in placements:
        cat = Category.parse(cat)
        index = taken.get(cat, 0)
        taken[cat] = index + 1
        pois.append(replace(app.dataset.by_category(cat)[index],
                            lat=lat, lon=lon))
    return POIDataset(pois, city=CITY)


def session_at(dataset, item_index, profile, lat, lon, members=(),
               arrays=None) -> CustomizationSession:
    """A session whose only CI holds ``members`` and is centred at
    ``(lat, lon)``: ADD queries that point and excludes the members."""
    ci = CompositeItem(members, centroid=(lat, lon))
    return CustomizationSession(
        package=TravelPackage([ci]), dataset=dataset, profile=profile,
        item_index=item_index, arrays=arrays,
    )


@pytest.fixture()
def profile(uniform_group):
    return uniform_group.profile()


class TestExamples:
    def test_k_zero_and_negative_k_select_nothing(self, app, profile):
        session = session_at(app.dataset, app.item_index, profile,
                             LAT0, LON0)
        assert session.suggest_additions(0, k=0) == []
        assert session.suggest_additions(0, k=-1) == []

    def test_empty_candidates(self, app, profile):
        city = relocated(app, [("rest", LAT0, LON0),
                               ("rest", LAT0 + STEP, LON0)])
        only, other = list(city)
        session = session_at(city, app.item_index, profile, LAT0, LON0,
                             members=[only, other])
        # Every restaurant is a member, and no other category exists.
        assert session.suggest_additions(0, k=5) == []
        assert session.suggest_additions(0, k=5, category="attr") == []
        assert session.recommend_replacement(0, only.id) is None

    def test_single_poi_city(self, app, profile):
        city = relocated(app, [("acco", LAT0, LON0)])
        session = session_at(city, app.item_index, profile,
                             LAT0 + 0.05, LON0 + 0.05)
        assert session.suggest_additions(0, k=3) == list(city)

    def test_coinciding_pois_tie_by_id(self, app, profile):
        city = relocated(app, [("attr", LAT0, LON0)] * 3
                         + [("attr", LAT0 + STEP, LON0)])
        coinciding = sorted(p.id for p in list(city)[:3])
        farther = list(city)[3].id
        # Rows in descending id order: a tie broken by row would show.
        city = POIDataset(sorted(city, key=lambda p: -p.id), city=CITY)
        session = session_at(city, app.item_index, profile, LAT0, LON0)
        found = [p.id for p in session.suggest_additions(0, k=4)]
        assert found == coinciding + [farther]

    def test_equidistant_pois_tie_by_id(self, app, profile):
        city = relocated(app, [("rest", LAT0 + STEP, LON0),
                               ("rest", LAT0 - STEP, LON0)])
        city = POIDataset(sorted(city, key=lambda p: -p.id), city=CITY)
        session = session_at(city, app.item_index, profile, LAT0, LON0)
        found = [p.id for p in session.suggest_additions(0, k=2)]
        assert found == sorted(city.ids)

    def test_distance_outranks_id(self, app, profile):
        # 1e-12 degrees is ~1e-10 km: far above float64 resolution at
        # this distance, far below float32's.
        city = relocated(app, [("rest", LAT0, LON0), ("rest", LAT0, LON0)])
        low, high = sorted(city, key=lambda p: p.id)
        city = POIDataset([replace(low, lat=LAT0 + STEP + 1e-12),
                           replace(high, lat=LAT0 + STEP)], city=CITY)
        session = session_at(city, app.item_index, profile, LAT0, LON0)
        found = [p.id for p in session.suggest_additions(0, k=2)]
        assert found == [high.id, low.id]

    def test_type_filter_skips_nearer_pois(self, app, profile):
        city = relocated(app, [("rest", LAT0, LON0),
                               ("rest", LAT0 + 2 * STEP, LON0)])
        near, far = list(city)
        city = POIDataset([replace(near, type="a"), replace(far, type="b")],
                          city=CITY)
        session = session_at(city, app.item_index, profile, LAT0, LON0)
        assert [p.id for p in session.suggest_additions(
            0, k=2, poi_type="b")] == [far.id]

    def test_default_arrays_are_the_pooled_bundle(self, app, profile):
        session = session_at(app.dataset, app.item_index, profile,
                             LAT0, LON0)
        assert session.arrays is CityArrays.of(app.dataset, app.item_index)


def _lattice(lo: int, hi: int):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi))


def _point(draw, lo: int, hi: int) -> tuple[float, float]:
    """A lattice point (distances tie) or an arbitrary one nearby."""
    cell = draw(st.one_of(
        _lattice(lo, hi).map(lambda c: (float(c[0]), float(c[1]))),
        st.tuples(st.floats(lo, hi), st.floats(lo, hi)),
    ))
    return LAT0 + STEP * cell[0], LON0 + STEP * cell[1]


def _mutation(draw, dataset, new_id: int, types):
    kind = draw(st.sampled_from(("close", "reprice", "add")))
    ids = sorted(dataset.ids)
    if kind == "close":
        if len(ids) <= 1:
            return None
        return ClosePoi(poi_id=draw(st.sampled_from(ids)))
    if kind == "reprice":
        return RepricePoi(poi_id=draw(st.sampled_from(ids)),
                          cost=draw(st.floats(0, 100)))
    lat, lon = _point(draw, 0, 4)
    return AddPoi(poi=make_poi(new_id, draw(st.sampled_from(CATEGORIES)),
                               lat=lat, lon=lon,
                               poi_type=draw(st.sampled_from(types))))


def _check_epoch(draw, entry, profile, types):
    """Draw queries against one epoch's entry; compare with the oracle."""
    dataset = entry.dataset
    members = draw(st.lists(st.sampled_from(list(dataset)), max_size=3,
                            unique_by=lambda p: p.id))
    if draw(st.booleans()):
        # A member the dataset lacks (closed since it was picked).
        lat, lon = _point(draw, 0, 4)
        members.append(make_poi(99_999, draw(st.sampled_from(CATEGORIES)),
                                lat=lat, lon=lon))
    exclude = {p.id for p in members}
    lat, lon = _point(draw, -1, 5)
    session = session_at(dataset, entry.item_index, profile, lat, lon,
                         members=members, arrays=entry.arrays)
    for _ in range(3):
        k = draw(st.integers(0, len(dataset) + 2))
        category = draw(st.none() | st.sampled_from(CATEGORIES))
        poi_type = draw(st.none() | st.sampled_from(types))
        assert session.suggest_additions(
            0, k=k, category=category, poi_type=poi_type,
        ) == nearest_pois(dataset, lat, lon, k, category=category,
                          poi_type=poi_type, exclude=exclude)
    for member in members:
        want = nearest_pois(dataset, member.lat, member.lon, 1,
                            category=member.cat, exclude=exclude)
        got = session.recommend_replacement(0, member.id)
        assert got == (want[0] if want else None)


class TestOracleProperty:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_suggestions_match_the_oracle_across_mutations(
            self, app, uniform_group, data):
        draw = data.draw
        profile = uniform_group.profile()
        cells = draw(st.lists(st.tuples(st.sampled_from(CATEGORIES),
                                         _lattice(0, 4)),
                              min_size=1, max_size=16))
        city = relocated(app, [(cat, LAT0 + STEP * a, LON0 + STEP * b)
                               for cat, (a, b) in cells])
        types = sorted({p.type for p in city}) + ["no-such-type"]
        registry = CityRegistry(seed=7)
        # Adds store vectors in the index: keep the shared one pristine.
        registry.register(city, copy.deepcopy(app.item_index))
        _check_epoch(draw, registry.entry(CITY), profile, types)
        for step in range(draw(st.integers(0, 4))):
            mutation = _mutation(draw, registry.dataset(CITY),
                                 10_000 + step, types)
            if mutation is None:
                continue
            registry.mutate(CITY, mutation)
            _check_epoch(draw, registry.entry(CITY), profile, types)
