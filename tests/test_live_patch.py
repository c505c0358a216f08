"""The live-patch equivalence gate: patched CityArrays == fresh build.

:func:`repro.live.patch.patch_arrays` promises **byte identity** with
``CityArrays.build`` over the mutated dataset.  The hypothesis property
test drives random mutation sequences (close / reprice / add, chained)
over a small synthetic city and compares every exported array
bit-for-bit after every step -- dtype, shape and raw bytes -- plus the
scalar metadata (projection origin, distance normalizer) and the
``row_of`` map.  Both paths read the *same* shared
:class:`~repro.profiles.vectors.ItemVectorIndex` (extended via
``extend_with`` for added POIs, whose vector the patch receives),
which is exactly the registry's serving configuration.

A second property drives close/add sequences at the distance
normalizer's edges -- adds far outside the city's hull, closes of the
current farthest pair's endpoints, cities shrunk to two and one POIs
-- so the O(n) update and its rescan are both exercised.
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.geo.distance as distance
from repro.core.arrays import CityArrays
from repro.data.dataset import POIDataset
from repro.data.poi import CATEGORIES, Category
from repro.data.synthetic import generate_city
from repro.data.taxonomy import types_for
from repro.live.mutations import AddPoi, ClosePoi, Mutation, RepricePoi
from repro.live.patch import patch_arrays
from repro.profiles.vectors import ItemVectorIndex

from conftest import make_poi
from geo_oracle import equirectangular_matrix

SEED = 2019


@pytest.fixture(scope="module")
def base():
    """A ~100-POI city with fitted vectors (shared; never mutated --
    every mutation produces fresh datasets/bundles)."""
    dataset = generate_city("paris", seed=3, scale=0.12)
    index = ItemVectorIndex.fit(dataset, lda_iterations=15, seed=SEED)
    return dataset, index


def assert_bundles_identical(patched: CityArrays, fresh: CityArrays) -> None:
    """Byte-for-byte equality of everything the store would persist."""
    exported, expected = patched.export_arrays(), fresh.export_arrays()
    assert exported.keys() == expected.keys()
    for key in expected:
        got, want = exported[key], expected[key]
        assert got.dtype == want.dtype, f"{key}: {got.dtype} != {want.dtype}"
        assert got.shape == want.shape, f"{key}: {got.shape} != {want.shape}"
        assert got.tobytes() == want.tobytes(), f"{key}: bytes differ"
    assert patched.export_meta() == fresh.export_meta()
    assert patched.row_of == fresh.row_of


def interpret(op: tuple, dataset) -> Mutation | None:
    """Resolve one abstract drawn op against the *current* dataset."""
    kind, pick, cost, cat_idx, dlat, dlon, known = op
    ids = sorted(dataset.ids)
    if kind == 0:
        if len(ids) <= 1:
            return None
        return ClosePoi(poi_id=ids[int(pick * len(ids))])
    if kind == 1:
        return RepricePoi(poi_id=ids[int(pick * len(ids))], cost=cost)
    cat = CATEGORIES[cat_idx]
    coords = dataset.coordinates()
    lat = float(coords[:, 0].mean()) + dlat
    lon = float(coords[:, 1].mean()) + dlon
    if known and cat in (Category.ACCOMMODATION, Category.TRANSPORTATION):
        poi_type = types_for(cat)[cat_idx % len(types_for(cat))]
    else:
        poi_type = "pop-up"
    tags = _tag_pool(dataset, cat_idx) if known else ("never-seen-tag",)
    return AddPoi(poi=make_poi(max(ids) + 1, cat, lat=lat, lon=lon,
                               cost=cost, poi_type=poi_type, tags=tags))


def _tag_pool(dataset, cat_idx: int) -> tuple[str, ...]:
    tags = sorted({t for p in dataset for t in p.tags})
    return (tags[cat_idx % len(tags)], tags[-1 - cat_idx % len(tags)])


_OPS = st.tuples(
    st.integers(0, 2),            # 0=close, 1=reprice, 2=add
    st.floats(0, 0.999),          # victim selector
    st.floats(0, 200),            # new cost
    st.integers(0, 3),            # category index for adds
    st.floats(-0.02, 0.02),       # lat jitter for adds
    st.floats(-0.02, 0.02),       # lon jitter for adds
    st.booleans(),                # draw type/tags from the known pools?
)


class TestByteIdentity:
    @settings(deadline=None, max_examples=25)
    @given(ops=st.lists(_OPS, min_size=1, max_size=6))
    def test_random_mutation_sequences(self, base, ops):
        # extend_with writes into the index, and a close of the highest
        # id followed by an add reuses that id: work on a private copy
        # so no example corrupts the shared fixture.
        dataset, index = base[0], copy.deepcopy(base[1])
        patched = CityArrays.build(dataset, index)
        current = dataset
        for op in ops:
            mutation = interpret(op, current)
            if mutation is None:
                continue
            vector = (index.extend_with(mutation.poi, seed=SEED)
                      if isinstance(mutation, AddPoi) else None)
            mutated = mutation.apply(current)
            patched = patch_arrays(patched, mutation, current, vector)
            assert_bundles_identical(
                patched, CityArrays.build(mutated, index)
            )
            current = mutated

    def test_reprice_reuses_unaffected_arrays(self, base):
        dataset, index = base
        arrays = CityArrays.build(dataset, index)
        victim = dataset.by_category(Category.RESTAURANT)[0]
        mutation = RepricePoi(poi_id=victim.id, cost=victim.cost + 7.5)
        mutated = mutation.apply(dataset)
        patched = patch_arrays(arrays, mutation, dataset)
        assert_bundles_identical(patched, CityArrays.build(mutated, index))
        # The fast path must be a *patch*: geometry and every other
        # category's arrays are the same objects, not re-derived copies.
        assert patched.xy is arrays.xy
        assert patched.lats is arrays.lats
        assert patched.categories[Category.ACCOMMODATION] is (
            arrays.categories[Category.ACCOMMODATION]
        )
        rest = patched.categories[Category.RESTAURANT]
        assert rest.vectors is arrays.categories[Category.RESTAURANT].vectors

    def test_close_empties_a_category(self, base):
        """Deleting every POI of one category leaves empty columns."""
        _, index = base
        dataset = generate_city("paris", seed=3, scale=0.12)
        idx = ItemVectorIndex.fit(dataset, lda_iterations=5, seed=SEED)
        arrays = CityArrays.build(dataset, idx)
        current = dataset
        for poi in dataset.by_category(Category.TRANSPORTATION):
            mutation = ClosePoi(poi_id=poi.id)
            mutated = mutation.apply(current)
            arrays = patch_arrays(arrays, mutation, current)
            current = mutated
        assert len(current.by_category(Category.TRANSPORTATION)) == 0
        assert_bundles_identical(arrays, CityArrays.build(current, idx))

    def test_add_single_poi(self, base):
        dataset, index = base
        arrays = CityArrays.build(dataset, index)
        poi = make_poi(max(dataset.ids) + 1, Category.ATTRACTION,
                       lat=48.9, lon=2.3, cost=5.0, poi_type="park",
                       tags=("garden", "view"))
        mutation = AddPoi(poi=poi)
        vector = index.extend_with(poi, seed=SEED)
        mutated = mutation.apply(dataset)
        patched = patch_arrays(arrays, mutation, dataset, vector)
        assert_bundles_identical(patched, CityArrays.build(mutated, index))

    def test_add_without_its_vector_is_refused(self, base):
        dataset, index = base
        arrays = CityArrays.build(dataset, index)
        poi = make_poi(max(dataset.ids) + 1, Category.ACCOMMODATION)
        with pytest.raises(ValueError, match="item vector"):
            patch_arrays(arrays, AddPoi(poi=poi), dataset)

    def test_unknown_mutation_kind_is_unsupported(self, base):
        dataset, index = base
        arrays = CityArrays.build(dataset, index)
        with pytest.raises(TypeError):
            patch_arrays(arrays, Mutation(), dataset)


# -- the distance normalizer's O(n) update ---------------------------------

def farthest_pair(dataset) -> tuple[int, int]:
    """Ids of a pair at the largest distance (the oracle's argmax)."""
    ids = list(dataset.ids)
    matrix = equirectangular_matrix(dataset.coordinates())
    i, j = np.unravel_index(int(np.argmax(matrix)), matrix.shape)
    return ids[i], ids[j]


def counting_scans(fn):
    """``fn()`` and how many row blocks ``max_pairwise_distance``'s exact
    scan evaluated meanwhile (the O(n) update calls the distance with a
    single point, the scan with a column of rows)."""
    blocks = []
    real = distance.equirectangular_km

    def spy(lat1, *rest):
        blocks.append(np.ndim(lat1) == 2)
        return real(lat1, *rest)

    with mock.patch.object(distance, "equirectangular_km", spy):
        result = fn()
    return result, sum(blocks)


# One op: ("far", endpoint) closes an endpoint of the current farthest
# pair (2: both, one after the other); ("close", pick) any POI;
# ("add", anchor, dlat, dlon) a POI offset from an existing one by up to
# half a degree -- far outside the hull -- or exactly on it.
_OFFSET = st.one_of(st.just(0.0), st.floats(-0.5, 0.5))
_NORMALIZER_OPS = st.one_of(
    st.tuples(st.just("far"), st.integers(0, 2)),
    st.tuples(st.just("close"), st.floats(0, 0.999)),
    st.tuples(st.just("add"), st.floats(0, 0.999), _OFFSET, _OFFSET),
)


class TestNormalizerUpdate:
    @settings(deadline=None, max_examples=40)
    @given(size=st.integers(3, 8),
           ops=st.lists(_NORMALIZER_OPS, min_size=1, max_size=8))
    @example(size=4, ops=[("far", 2), ("far", 0), ("add", 0.0, 0.4, -0.4),
                          ("far", 1), ("add", 0.5, 0.0, 0.0)])
    @example(size=3, ops=[("add", 0.0, 0.0, 0.0), ("far", 0), ("far", 0),
                          ("far", 0)])
    def test_patched_normalizer_equals_a_fresh_build(self, base, size, ops):
        """Bit-for-bit equal to ``CityArrays.build``'s over every drawn
        sequence; every sequence closes a farthest-pair endpoint of a
        city of three or more, so the rescan runs in each example."""
        index = copy.deepcopy(base[1])
        current = POIDataset(sorted(base[0], key=lambda p: p.id)[:size],
                             city="paris")
        patched = CityArrays.build(current, index)
        rescans = 0
        next_id = max(base[0].ids) + 1
        for op in [("far", 0), *ops]:
            for mutation in self._resolve(op, current, next_id):
                if mutation is None:
                    continue
                vector = None
                if isinstance(mutation, AddPoi):
                    vector = index.extend_with(mutation.poi, seed=SEED)
                    next_id += 1
                mutated = mutation.apply(current)
                patched, blocks = counting_scans(lambda: patch_arrays(
                    patched, mutation, current, vector))
                fresh = CityArrays.build(mutated, index)
                assert patched.max_distance_km == fresh.max_distance_km
                assert_bundles_identical(patched, fresh)
                rescans += blocks > 0
                current = mutated
        assert rescans > 0

    @staticmethod
    def _resolve(op, dataset, next_id):
        """The op's mutations, resolved against ``dataset`` (``None``
        where the city is down to a single POI)."""
        kind = op[0]
        if kind == "far":
            if len(dataset) <= 1:
                return [None]
            pair = farthest_pair(dataset)
            if op[1] < 2:
                return [ClosePoi(poi_id=pair[op[1]])]
            # Coincident points tie at (i, i); a city keeps one POI.
            both = list(dict.fromkeys(pair))[:len(dataset) - 1]
            return [ClosePoi(poi_id=poi_id) for poi_id in both]
        ids = sorted(dataset.ids)
        anchor = dataset[ids[int(op[1] * len(ids))]]
        if kind == "close":
            return [ClosePoi(poi_id=anchor.id) if len(ids) > 1 else None]
        return [AddPoi(poi=make_poi(
            next_id, anchor.cat, lat=anchor.lat + op[2],
            lon=anchor.lon + op[3], poi_type=anchor.type,
            tags=anchor.tags))]
