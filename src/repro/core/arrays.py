"""Per-city precomputed array bundles: the compute layer.

Every Travel-Package build repeats work that depends only on the city,
never on the query: stacking lat/lon arrays per category, gathering
item vectors into matrices, computing vector norms, projecting
coordinates into the local km plane, sorting category pools by cost.
:class:`CityArrays` materializes all of it **once per
(dataset, item index) pair** -- the same precompute-for-query-answering
move as OBDA's exact mappings or bitmap-join-index selection: pay at
registration time, serve every request from contiguous arrays.

The bundle is frozen and picklable, so shard workers can receive (or
rebuild) it intact, and it is *purely a representation*: every array is
built with exactly the operations a per-call scorer over the ``POI``
objects performs, so scoring against the bundle is bit-for-bit
identical to the object-path oracle in ``tests/assembly_oracle.py``
(the golden determinism tests in ``tests/test_core_arrays.py`` pin
this).  It is the only representation assembly scores against.

It holds exactly what KFC scores with -- distance to a centroid, item
cosine to the group profile, cost -- and nothing else.  Contents, all
row-aligned with the dataset's iteration order:

* ``ids`` / ``lats`` / ``lons`` -- city-wide columns (every distance
  pass runs over the whole city, then slices by category rows);
* ``xy`` / ``origin`` -- the local equirectangular projection the KFC
  builder and fuzzy c-means run in (km east/north of the city centre);
* ``max_distance_km`` -- the paper's distance normalizer;
* per-category :class:`CategoryArrays` -- ids, city-wide rows and costs
  in ``dataset.by_category`` order, the stacked item-vector matrix, and
  the row norms and cost-sorted candidate order
  :meth:`CategoryArrays.from_columns` derives from them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import POIDataset
from repro.data.poi import CATEGORIES, Category
from repro.profiles.vectors import ItemVectorIndex

#: Kilometres per degree of latitude (constant over the sphere); the
#: scale of the local projection the KFC builder runs in.
_KM_PER_DEG_LAT = 111.195


# -- the local equirectangular projection -------------------------------------
#
# Moved here from KFCBuilder so the projection is computed once per city
# and shared by everything that needs km-plane geometry.  The formulas
# are unchanged, so projected values are bit-identical to the seed.

def project_coords(coords: np.ndarray) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Project ``(lat, lon)`` rows to local km-space (x east, y north).

    Returns the projected ``(n, 2)`` array and the ``(lat0, lon0,
    cos0)`` origin needed to project further points consistently.
    """
    lat0 = float(coords[:, 0].mean())
    origin = (lat0, float(coords[:, 1].mean()),
              float(np.cos(np.radians(lat0))))
    xy = project_points(coords, origin)
    xy.flags.writeable = False  # KFC shares FCM seeds by its identity
    return xy, origin


def project_points(latlon: np.ndarray,
                   origin: tuple[float, float, float]) -> np.ndarray:
    """Project arbitrary ``(lat, lon)`` rows with a known origin."""
    lat0, lon0, cos0 = origin
    x = (latlon[:, 1] - lon0) * _KM_PER_DEG_LAT * cos0
    y = (latlon[:, 0] - lat0) * _KM_PER_DEG_LAT
    return np.column_stack([x, y])


def unproject_points(xy: np.ndarray,
                     origin: tuple[float, float, float]) -> np.ndarray:
    """Inverse of :func:`project_points`, returning ``(lat, lon)`` rows."""
    lat0, lon0, cos0 = origin
    lat = lat0 + xy[:, 1] / _KM_PER_DEG_LAT
    lon = lon0 + xy[:, 0] / (_KM_PER_DEG_LAT * cos0)
    return np.column_stack([lat, lon])


@dataclass(frozen=True)
class CategoryArrays:
    """One category's contiguous columns, in ``by_category`` order.

    Attributes:
        category: The category the rows belong to.
        ids: ``(n,)`` POI ids.
        rows: ``(n,)`` indices into the city-wide arrays.
        costs: ``(n,)`` per-POI costs.
        vectors: ``(n, d)`` stacked item-vector matrix (the profile
            coordinate system for this category).
        vector_norms: ``(n,)`` precomputed row norms of ``vectors``.
        cost_order: ``(n,)`` row order sorted by ``(cost, id)`` -- the
            cheapest-first candidate order the budget paths use.
    """

    category: Category
    ids: np.ndarray
    rows: np.ndarray
    costs: np.ndarray
    vectors: np.ndarray
    vector_norms: np.ndarray
    cost_order: np.ndarray

    @classmethod
    def from_columns(cls, category: Category, ids: np.ndarray,
                     rows: np.ndarray, costs: np.ndarray,
                     vectors: np.ndarray) -> "CategoryArrays":
        """One category from its source columns, deriving the row norms
        and the ``(cost, id)`` order.  ``CityArrays.build`` and the live
        patcher both construct categories here, so a patched category
        is a built one by construction."""
        return cls(category=category, ids=ids, rows=rows, costs=costs,
                   vectors=vectors,
                   vector_norms=np.linalg.norm(vectors, axis=1),
                   cost_order=np.lexsort((ids, costs)))

    def __len__(self) -> int:
        return int(self.ids.shape[0])


@dataclass(frozen=True)
class CityArrays:
    """The frozen per-city bundle (see the module docstring).

    Build with :meth:`build`, or :meth:`of` to share one bundle per
    ``(dataset, item_index)`` pair process-wide.
    """

    city: str
    ids: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    xy: np.ndarray
    origin: tuple[float, float, float]
    max_distance_km: float
    categories: dict[Category, CategoryArrays]
    row_of: dict[int, int]

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, dataset: POIDataset,
              item_index: ItemVectorIndex) -> "CityArrays":
        """Materialize the bundle for one dataset / item-vector pair.

        The coordinate matrix and projection reuse the exact code paths
        of the per-call implementations (``dataset.coordinates()`` and
        the former ``KFCBuilder._project``), so downstream arithmetic is
        bit-identical to the object path.
        """
        coords = dataset.coordinates()
        ids = np.array([p.id for p in dataset], dtype=np.int64)
        if coords.size:
            lats = np.ascontiguousarray(coords[:, 0])
            lons = np.ascontiguousarray(coords[:, 1])
            xy, origin = project_coords(coords)
        else:
            lats = np.empty(0)
            lons = np.empty(0)
            xy = np.empty((0, 2))
            origin = (0.0, 0.0, 1.0)
        row_of = {int(poi_id): row for row, poi_id in enumerate(ids)}

        categories: dict[Category, CategoryArrays] = {}
        for cat in CATEGORIES:
            cat_pois = dataset.by_category(cat)
            categories[cat] = CategoryArrays.from_columns(
                cat,
                ids=np.array([p.id for p in cat_pois], dtype=np.int64),
                rows=np.array([row_of[p.id] for p in cat_pois],
                              dtype=np.int64),
                costs=np.array([p.cost for p in cat_pois], dtype=float),
                # Stack item vectors exactly as ItemVectorIndex.matrix()
                # does per call, one time.
                vectors=item_index.stacked(
                    (p.id for p in cat_pois),
                    dim=item_index.schema.size(cat),
                ),
            )

        return cls(
            city=dataset.city,
            ids=ids,
            lats=lats,
            lons=lons,
            xy=xy,
            origin=origin,
            max_distance_km=dataset.max_distance_km,
            categories=categories,
            row_of=row_of,
        )

    @classmethod
    def of(cls, dataset: POIDataset,
           item_index: ItemVectorIndex) -> "CityArrays":
        """The pooled bundle for a ``(dataset, item_index)`` pair.

        Keyed by object identity through weak references, so repeated
        callers (assembly, objective evaluation, customization) share
        one bundle and dropping the dataset or index frees it.
        """
        per_index = _POOL.get(item_index)
        if per_index is None:
            per_index = weakref.WeakKeyDictionary()
            _POOL[item_index] = per_index
        arrays = per_index.get(dataset)
        if arrays is None:
            arrays = cls.build(dataset, item_index)
            per_index[dataset] = arrays
        return arrays

    # -- persistence --------------------------------------------------------

    #: Per-category array fields, in the order they are exported.
    _CATEGORY_FIELDS = ("ids", "rows", "costs", "vectors", "vector_norms",
                        "cost_order")

    def export_arrays(self) -> dict[str, np.ndarray]:
        """Every array of the bundle under a flat string key -- the
        payload an asset store writes; ``row_of`` is derivable from
        ``ids`` and not exported."""
        payload: dict[str, np.ndarray] = {
            "ids": self.ids, "lats": self.lats, "lons": self.lons,
            "xy": self.xy,
        }
        for cat, ca in self.categories.items():
            for name in self._CATEGORY_FIELDS:
                payload[f"cat__{cat.value}__{name}"] = getattr(ca, name)
        return payload

    def export_meta(self) -> dict:
        """The JSON-able scalars accompanying :meth:`export_arrays`."""
        return {
            "city": self.city,
            "origin": list(self.origin),
            "max_distance_km": self.max_distance_km,
        }

    @classmethod
    def from_export(cls, payload, meta: dict) -> "CityArrays":
        """Inverse of :meth:`export_arrays` / :meth:`export_meta`.

        ``payload`` is any mapping of the exported keys to arrays (a
        live ``np.load`` handle works, as does a dict of memory-mapped
        segment views).  Raises ``KeyError`` / ``ValueError`` on
        missing or malformed entries, which asset stores treat as
        corruption.

        **View-safe**: when a payload array already has the expected
        dtype, it is adopted as-is (``np.asarray`` makes no copy) --
        so read-only ``mmap``-backed views hydrate a bundle with zero
        array copies, and the bundle stays backed by the OS page
        cache.  Builds only ever read these arrays (every consumer
        allocates its own outputs), so read-only views are safe; the
        golden-fixture tests pin that on the hydrated path.
        """
        ids = np.asarray(payload["ids"], dtype=np.int64)
        categories: dict[Category, CategoryArrays] = {}
        for cat in CATEGORIES:
            fields = {name: np.asarray(payload[f"cat__{cat.value}__{name}"])
                      for name in cls._CATEGORY_FIELDS}
            categories[cat] = CategoryArrays(category=cat, **fields)
        origin = meta["origin"]
        return cls(
            city=str(meta["city"]),
            ids=ids,
            lats=np.asarray(payload["lats"], dtype=float),
            lons=np.asarray(payload["lons"], dtype=float),
            xy=np.asarray(payload["xy"], dtype=float),
            origin=(float(origin[0]), float(origin[1]), float(origin[2])),
            max_distance_km=float(meta["max_distance_km"]),
            categories=categories,
            row_of={int(poi_id): row for row, poi_id in enumerate(ids)},
        )

    @property
    def nbytes(self) -> int:
        """Total bytes of every array in the bundle (residency
        accounting for registry eviction)."""
        total = (self.ids.nbytes + self.lats.nbytes + self.lons.nbytes
                 + self.xy.nbytes)
        for ca in self.categories.values():
            total += sum(getattr(ca, name).nbytes
                         for name in self._CATEGORY_FIELDS)
        return total

    # -- views -------------------------------------------------------------

    def category(self, category: Category | str) -> CategoryArrays:
        """One category's columns."""
        return self.categories[Category.parse(category)]


#: Process-wide bundle pool: item_index -> dataset -> CityArrays, all
#: weakly referenced so serving stacks share one bundle per city and
#: nothing outlives its dataset.
_POOL: "weakref.WeakKeyDictionary[ItemVectorIndex, weakref.WeakKeyDictionary[POIDataset, CityArrays]]" = (
    weakref.WeakKeyDictionary()
)
