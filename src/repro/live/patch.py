"""Incremental :class:`~repro.core.arrays.CityArrays` patching.

``CityArrays.build`` is the dominant cost of re-registering a city
(stacking every category's columns, vectors, norms and cost orders).
A single-POI mutation invalidates only a sliver of that: the affected
category's columns, the city-wide column holding the POI, and -- for
geometry-changing mutations -- the shared projection and distance
normalizer.  :func:`patch_arrays` rewrites exactly that sliver and
reuses every other array object unchanged.

The contract is strict **byte identity**: the patched bundle must be
indistinguishable from ``CityArrays.build(mutated_dataset, item_index)``
-- every exported array bit-for-bit equal, every scalar equal.  That is
achievable because ``build`` is deterministic and every derived array
is a pure function of its source columns: value-equal float64 inputs
put through the same numpy operations yield byte-equal outputs.  The
patcher therefore re-runs the *same* operations (``np.lexsort`` with
the same keys, the same norms, the same projection formulas) over
patched columns, and the hypothesis property test in
``tests/test_live_patch.py`` pins the equivalence over random mutation
sequences.

Per-kind cost profile:

* ``reprice_poi`` -- O(category) : two column copies and one lexsort;
  no geometry changes, every other array reused.  This is the hot path
  ``benchmarks/bench_live.py`` gates at >= 5x a full rebuild.
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

__all__ = ["PatchUnsupported", "patch_arrays"]


class PatchUnsupported(Exception):
    """The patcher declines this mutation; caller should full-rebuild."""


def patch_arrays(arrays: CityArrays, mutation: Mutation,
                 dataset_before: POIDataset, dataset_after: POIDataset,
                 item_index: ItemVectorIndex) -> CityArrays:
    """Patch ``arrays`` (built from ``dataset_before``) into the bundle
    ``CityArrays.build(dataset_after, item_index)`` would produce.

    ``arrays`` is never modified (it may be a read-only mmap-backed
    hydrated bundle); every changed array is freshly allocated.
    Raises :class:`PatchUnsupported` for mutation kinds it does not
    know, which the registry treats as "fall back to a full rebuild".
    """
    if isinstance(mutation, RepricePoi):
        return _patch_reprice(arrays, mutation, dataset_before, dataset_after)
    if isinstance(mutation, ClosePoi):
        return _patch_close(arrays, mutation, dataset_before)
    if isinstance(mutation, AddPoi):
        return _patch_add(arrays, mutation, item_index)
    raise PatchUnsupported(f"no incremental patch for {type(mutation).__name__}")


def _patch_reprice(arrays: CityArrays, mutation: RepricePoi,
                   before: POIDataset, after: POIDataset) -> CityArrays:
    """Cost-only change: one city column, one category's costs + order."""
    poi_id = mutation.poi_id
    row = arrays.row_of[poi_id]
    # float(cost) exactly as build()'s np.array(..., dtype=float) coerces.
    new_cost = float(after[poi_id].cost)

    costs = arrays.costs.copy()
    costs[row] = new_cost

    cat = before[poi_id].cat
    ca = arrays.categories[cat]
    ci = int(np.flatnonzero(ca.ids == poi_id)[0])
    cat_costs = ca.costs.copy()
    cat_costs[ci] = new_cost
    categories = dict(arrays.categories)
    categories[cat] = _replace(
        ca,
        costs=cat_costs,
        # Same keys, same tie-break as build(): (cost, id) ascending.
        cost_order=np.lexsort((ca.ids, cat_costs)),
    )
    return _replace(arrays, costs=costs, categories=categories)


def _patch_close(arrays: CityArrays, mutation: ClosePoi,
                 before: POIDataset) -> CityArrays:
    """Row removal: delete one row city-wide and from its category,
    shift row indices above it, and re-derive the geometry that depends
    on the full coordinate set (projection, distance normalizer)."""
    poi_id = mutation.poi_id
    row = arrays.row_of[poi_id]
    cat = before[poi_id].cat

    ids = np.delete(arrays.ids, row)
    lats = np.delete(arrays.lats, row)
    lons = np.delete(arrays.lons, row)
    costs = np.delete(arrays.costs, row)
    # column_stack of the 1-D columns is C-contiguous (n, 2) float64 --
    # the same layout dataset.coordinates() builds -- so the projection
    # and normalizer arithmetic below is bit-identical to build()'s.
    coords = np.column_stack([lats, lons])
    xy, origin = project_coords(coords)
    max_distance_km = max_pairwise_distance(coords)

    categories: dict[Category, CategoryArrays] = {}
    for c, ca in arrays.categories.items():
        if c is cat:
            ci = int(np.flatnonzero(ca.ids == poi_id)[0])
            categories[c] = _rebuild_category(
                c,
                ids=np.delete(ca.ids, ci),
                rows=_shift_down(np.delete(ca.rows, ci), row),
                lats=np.delete(ca.lats, ci),
                lons=np.delete(ca.lons, ci),
                costs=np.delete(ca.costs, ci),
                vectors=np.delete(ca.vectors, ci, axis=0),
            )
        elif np.any(ca.rows > row):
            categories[c] = _replace(ca, rows=_shift_down(ca.rows, row))
        else:
            categories[c] = ca

    return _replace(
        arrays,
        ids=ids, lats=lats, lons=lons, costs=costs,
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
    costs = np.concatenate([arrays.costs, np.array([poi.cost], dtype=float)])
    coords = np.column_stack([lats, lons])
    xy, origin = project_coords(coords)
    max_distance_km = max_pairwise_distance(coords)

    row_of = dict(arrays.row_of)
    row_of[int(poi.id)] = new_row

    cat = poi.cat
    ca = arrays.categories[cat]
    vector = item_index.vector(poi.id)
    categories = dict(arrays.categories)
    categories[cat] = _rebuild_category(
        cat,
        ids=np.concatenate([ca.ids, np.array([poi.id], dtype=np.int64)]),
        rows=np.concatenate([ca.rows, np.array([new_row], dtype=np.int64)]),
        lats=np.concatenate([ca.lats, np.array([poi.lat], dtype=float)]),
        lons=np.concatenate([ca.lons, np.array([poi.lon], dtype=float)]),
        costs=np.concatenate([ca.costs, np.array([poi.cost], dtype=float)]),
        vectors=np.vstack([ca.vectors, vector]),
    )

    return _replace(
        arrays,
        ids=ids, lats=lats, lons=lons, costs=costs,
        xy=xy, origin=origin, max_distance_km=max_distance_km,
        categories=categories,
        row_of=row_of,
    )


def _rebuild_category(category: Category, *, ids: np.ndarray,
                      rows: np.ndarray, lats: np.ndarray, lons: np.ndarray,
                      costs: np.ndarray, vectors: np.ndarray) -> CategoryArrays:
    """Assemble one category from patched columns, re-deriving exactly
    the arrays ``build`` derives (norms, cost order)."""
    return CategoryArrays(
        category=category,
        ids=ids,
        rows=rows,
        lats=lats,
        lons=lons,
        costs=costs,
        vectors=vectors,
        vector_norms=np.linalg.norm(vectors, axis=1),
        cost_order=np.lexsort((ids, costs)),
    )


def _shift_down(rows: np.ndarray, removed_row: int) -> np.ndarray:
    """City-wide row indices after deleting ``removed_row``: every index
    above it slides down by one (int64 result, new allocation)."""
    return rows - (rows > removed_row)
