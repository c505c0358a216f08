"""The live-patch equivalence gate: patched CityArrays == fresh build.

:func:`repro.live.patch.patch_arrays` promises **byte identity** with
``CityArrays.build`` over the mutated dataset.  The hypothesis property
test drives random mutation sequences (close / reprice / add, chained)
over a small synthetic city and compares every exported array
bit-for-bit after every step -- dtype, shape and raw bytes -- plus the
scalar metadata (projection origin, distance normalizer) and the
``row_of`` map.  Both paths read the *same* shared
:class:`~repro.profiles.vectors.ItemVectorIndex` (extended via
``extend_with`` for added POIs), which is exactly the registry's
serving configuration.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrays import CityArrays
from repro.data.poi import CATEGORIES, Category
from repro.data.synthetic import generate_city
from repro.data.taxonomy import types_for
from repro.live.mutations import AddPoi, ClosePoi, Mutation, RepricePoi
from repro.live.patch import patch_arrays
from repro.profiles.vectors import ItemVectorIndex

from conftest import make_poi

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
            if isinstance(mutation, AddPoi):
                index.extend_with(mutation.poi, seed=SEED)
            mutated = mutation.apply(current)
            patched = patch_arrays(patched, mutation, current, index)
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
        patched = patch_arrays(arrays, mutation, dataset, index)
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
            arrays = patch_arrays(arrays, mutation, current, idx)
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
        index.extend_with(poi, seed=SEED)
        mutated = mutation.apply(dataset)
        patched = patch_arrays(arrays, mutation, dataset, index)
        assert_bundles_identical(patched, CityArrays.build(mutated, index))

    def test_unknown_mutation_kind_is_unsupported(self, base):
        dataset, index = base
        arrays = CityArrays.build(dataset, index)
        with pytest.raises(TypeError):
            patch_arrays(arrays, Mutation(), dataset, index)
