"""Incremental :class:`~repro.core.arrays.CityArrays` patching.

``CityArrays.build`` is the dominant cost of re-registering a city
(stacking every category's columns, vectors, norms and cost orders).
A single-POI mutation invalidates only a sliver of that: the affected
category's columns and -- for geometry-changing mutations -- the
city-wide columns, the shared projection and the distance normalizer.
:func:`patch_arrays` rewrites exactly that sliver and reuses every
other array object unchanged.  It is the only way a mutation reaches
the bundle: every :class:`~repro.live.mutations.Mutation` kind has a
patch, and an unknown kind is a ``TypeError``.

The contract is strict **byte identity**: the patched bundle must be
indistinguishable from ``CityArrays.build(mutated_dataset, item_index)``
-- every exported array bit-for-bit equal, every scalar equal.  The
patcher edits source columns only (ids, rows, costs, vectors,
coordinates) and derives the rest through the constructors ``build``
itself uses: :meth:`~repro.core.arrays.CategoryArrays.from_columns`
for norms and cost order, :func:`~repro.core.arrays.project_coords`
for the projection.  Value-equal float64 inputs put through the same
numpy operations yield byte-equal outputs, and the hypothesis property
test in ``tests/test_live_patch.py`` pins the equivalence over random
mutation sequences.

Per-kind cost profile:

* ``reprice_poi`` -- O(category): one cost-column copy, its norms and
  one lexsort; no geometry changes, every other array reused.  This is
  the hot path ``benchmarks/bench_live.py`` gates at >= 5x a full
  rebuild.
* ``close_poi`` / ``add_poi`` -- O(n) column edits plus the O(n^2)
  distance-normalizer recompute (``max_pairwise_distance`` is the same
  vectorized kernel ``build`` itself pays through
  ``dataset.max_distance_km``); still no LDA work, no re-stacking of
  unaffected categories' vector matrices.

For ``add_poi`` the new POI's item vector must already be registered in
the shared :class:`~repro.profiles.vectors.ItemVectorIndex` (see
``ItemVectorIndex.extend_with``); the patcher reads it back so patched
and fresh builds stack the identical vector bytes.
"""

from __future__ import annotations

from dataclasses import replace as _replace

import numpy as np

from repro.core.arrays import (
    CategoryArrays,
    CityArrays,
    project_coords,
)
from repro.data.dataset import POIDataset
from repro.data.poi import Category
from repro.geo.distance import max_pairwise_distance
from repro.live.mutations import AddPoi, ClosePoi, Mutation, RepricePoi
from repro.profiles.vectors import ItemVectorIndex

__all__ = ["patch_arrays"]


def patch_arrays(arrays: CityArrays, mutation: Mutation,
                 dataset: POIDataset,
                 item_index: ItemVectorIndex) -> CityArrays:
    """Patch ``arrays`` (built from ``dataset``) into the bundle
    ``CityArrays.build(mutation.apply(dataset), item_index)`` would
    produce.

    ``arrays`` is never modified (it may be a read-only mmap-backed
    hydrated bundle); every changed array is freshly allocated.
    Raises ``TypeError`` for a mutation kind it does not know.
    """
    if isinstance(mutation, RepricePoi):
        return _patch_reprice(arrays, mutation, dataset)
    if isinstance(mutation, ClosePoi):
        return _patch_close(arrays, mutation, dataset)
    if isinstance(mutation, AddPoi):
        return _patch_add(arrays, mutation, item_index)
    raise TypeError(f"no patch for mutation kind {type(mutation).__name__}")


def _patch_reprice(arrays: CityArrays, mutation: RepricePoi,
                   dataset: POIDataset) -> CityArrays:
    """Cost-only change: one category's costs and what derives from
    them."""
    cat = dataset[mutation.poi_id].cat
    ca = arrays.categories[cat]
    costs = ca.costs.copy()
    costs[_position(ca, mutation.poi_id)] = mutation.cost
    categories = dict(arrays.categories)
    categories[cat] = CategoryArrays.from_columns(cat, ca.ids, ca.rows,
                                                  costs, ca.vectors)
    return _replace(arrays, categories=categories)


def _patch_close(arrays: CityArrays, mutation: ClosePoi,
                 dataset: POIDataset) -> CityArrays:
    """Row removal: delete one row city-wide and from its category,
    shift row indices above it, and re-derive the geometry that depends
    on the full coordinate set (projection, distance normalizer)."""
    poi_id = mutation.poi_id
    row = arrays.row_of[poi_id]
    cat = dataset[poi_id].cat

    ids = np.delete(arrays.ids, row)
    lats = np.delete(arrays.lats, row)
    lons = np.delete(arrays.lons, row)
    # column_stack of the 1-D columns is C-contiguous (n, 2) float64 --
    # the same layout dataset.coordinates() builds -- so the projection
    # and normalizer arithmetic below is bit-identical to build()'s.
    coords = np.column_stack([lats, lons])
    xy, origin = project_coords(coords)
    max_distance_km = max_pairwise_distance(coords)

    categories: dict[Category, CategoryArrays] = {}
    for c, ca in arrays.categories.items():
        if c is cat:
            ci = _position(ca, poi_id)
            categories[c] = CategoryArrays.from_columns(
                c,
                ids=np.delete(ca.ids, ci),
                rows=_shift_down(np.delete(ca.rows, ci), row),
                costs=np.delete(ca.costs, ci),
                vectors=np.delete(ca.vectors, ci, axis=0),
            )
        elif np.any(ca.rows > row):
            categories[c] = _replace(ca, rows=_shift_down(ca.rows, row))
        else:
            categories[c] = ca

    return _replace(
        arrays,
        ids=ids, lats=lats, lons=lons,
        xy=xy, origin=origin, max_distance_km=max_distance_km,
        categories=categories,
        row_of={int(i): r for r, i in enumerate(ids)},
    )


def _patch_add(arrays: CityArrays, mutation: AddPoi,
               item_index: ItemVectorIndex) -> CityArrays:
    """Row append: new last row city-wide and in its category; the
    projection/normalizer re-derive, but no existing row moves, so
    ``row_of`` extends in place."""
    poi = mutation.poi
    new_row = len(arrays)

    ids = np.concatenate([arrays.ids, np.array([poi.id], dtype=np.int64)])
    lats = np.concatenate([arrays.lats, np.array([poi.lat], dtype=float)])
    lons = np.concatenate([arrays.lons, np.array([poi.lon], dtype=float)])
    coords = np.column_stack([lats, lons])
    xy, origin = project_coords(coords)
    max_distance_km = max_pairwise_distance(coords)

    row_of = dict(arrays.row_of)
    row_of[int(poi.id)] = new_row

    cat = poi.cat
    ca = arrays.categories[cat]
    vector = item_index.vector(poi.id)
    categories = dict(arrays.categories)
    categories[cat] = CategoryArrays.from_columns(
        cat,
        ids=np.concatenate([ca.ids, np.array([poi.id], dtype=np.int64)]),
        rows=np.concatenate([ca.rows, np.array([new_row], dtype=np.int64)]),
        costs=np.concatenate([ca.costs, np.array([poi.cost], dtype=float)]),
        vectors=np.vstack([ca.vectors, vector]),
    )

    return _replace(
        arrays,
        ids=ids, lats=lats, lons=lons,
        xy=xy, origin=origin, max_distance_km=max_distance_km,
        categories=categories,
        row_of=row_of,
    )


def _position(ca: CategoryArrays, poi_id: int) -> int:
    """The POI's index within its category's columns."""
    return int(np.flatnonzero(ca.ids == poi_id)[0])


def _shift_down(rows: np.ndarray, removed_row: int) -> np.ndarray:
    """City-wide row indices after deleting ``removed_row``: every index
    above it slides down by one (int64 result, new allocation)."""
    return rows - (rows > removed_row)
