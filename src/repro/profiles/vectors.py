"""Item vectors: POIs embedded in the profile coordinate system.

Section 3.2 defines, for each POI ``i``, a vector in its category's
dimension space:

* accommodation / transportation -- a one-hot indicator of the POI's
  type;
* restaurants / attractions -- the POI's LDA topic distribution.

:class:`ItemVectorIndex` fits the two LDA models (one for restaurants,
one for attractions) over a dataset's tag bags, stores every POI's
vector, and exposes the :class:`~repro.profiles.schema.ProfileSchema`
whose dimension labels are the taxonomy types and the LDA topic labels.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import POIDataset
from repro.data.poi import CATEGORIES, Category, POI
from repro.data.taxonomy import types_for
from repro.profiles.schema import ProfileSchema
from repro.topics.corpus import TagCorpus
from repro.topics.lda import LatentDirichletAllocation

#: Categories whose vectors come from LDA topic distributions.
_TOPIC_CATEGORIES = (Category.RESTAURANT, Category.ATTRACTION)

#: Rare-tag pruning threshold for the LDA corpora.  Shared by
#: :meth:`ItemVectorIndex.fit` and :meth:`ItemVectorIndex.restore` so a
#: corpus rebuilt from a persisted dataset is the corpus that was
#: fitted.
_CORPUS_MIN_COUNT = 2


class ItemVectorIndex:
    """Per-POI item vectors over a fitted profile schema.

    Build with :meth:`fit`; then :meth:`vector` returns the embedding
    of any POI in the dataset, and :attr:`schema` is the matching
    dimension registry for user/group profiles.
    """

    def __init__(self, schema: ProfileSchema,
                 vectors: dict[int, np.ndarray],
                 topic_models: dict[Category, LatentDirichletAllocation]) -> None:
        self.schema = schema
        self._vectors = vectors
        # Each vector's 1-D ``np.linalg.norm``, memoized wherever a
        # vector is stored: a row-wise norm of a stacked matrix rounds
        # differently, so cosine-exact callers cannot use one.
        self._norms = {poi_id: np.linalg.norm(vec)
                       for poi_id, vec in vectors.items()}
        self._topic_models = topic_models
        # nbytes() parts, kept current by store(): the topic models are
        # never refitted, and only store() changes a vector.
        self._vector_bytes = sum(v.nbytes for v in vectors.values())
        self._model_bytes = sum(
            a.nbytes for lda in topic_models.values()
            for a in lda.state().values() if isinstance(a, np.ndarray))

    @classmethod
    def fit(cls, dataset: POIDataset, n_rest_topics: int = 8,
            n_attr_topics: int = 8, lda_iterations: int = 150,
            lda_alpha: float | None = None, seed: int = 0) -> "ItemVectorIndex":
        """Fit item vectors for every POI in ``dataset``.

        Args:
            dataset: The city's POIs.
            n_rest_topics: LDA topics for restaurants.
            n_attr_topics: LDA topics for attractions.
            lda_iterations: Gibbs sweeps per LDA model.
            lda_alpha: Document-topic smoothing; ``None`` uses the
                model default (``50 / K``).  The smooth default is the
                regime in which dense (disagreement-based) group
                profiles align well with every item, as the paper's
                Table 2 reflects.
            seed: Random seed shared by both topic models.
        """
        vectors: dict[int, np.ndarray] = {}
        topic_models: dict[Category, LatentDirichletAllocation] = {}
        dimensions: dict[Category, tuple[str, ...]] = {}

        # One-hot type vectors for the well-defined categories.
        for cat in (Category.ACCOMMODATION, Category.TRANSPORTATION):
            type_list = types_for(cat)
            type_index = {t: i for i, t in enumerate(type_list)}
            dimensions[cat] = type_list
            for poi in dataset.by_category(cat):
                vec = np.zeros(len(type_list))
                slot = type_index.get(poi.type)
                if slot is not None:
                    vec[slot] = 1.0
                vectors[poi.id] = vec

        # LDA topic distributions for restaurants and attractions.
        topic_counts = {Category.RESTAURANT: n_rest_topics,
                        Category.ATTRACTION: n_attr_topics}
        for cat in _TOPIC_CATEGORIES:
            pois = dataset.by_category(cat)
            n_topics = topic_counts[cat]
            if not pois:
                dimensions[cat] = tuple(f"{cat.value}-topic-{i}" for i in range(n_topics))
                continue
            corpus = TagCorpus([p.tags for p in pois],
                               min_count=_CORPUS_MIN_COUNT)
            lda = LatentDirichletAllocation(
                n_topics=n_topics, alpha=lda_alpha,
                n_iterations=lda_iterations, seed=seed,
            ).fit(corpus)
            topic_models[cat] = lda
            theta = lda.document_topics()
            for poi, row in zip(pois, theta):
                vectors[poi.id] = row.copy()
            dimensions[cat] = tuple(lda.topic_labels(n_words=3))

        schema = ProfileSchema(dimensions=dimensions)
        return cls(schema, vectors, topic_models)

    @classmethod
    def transfer(cls, dataset: POIDataset,
                 source: "ItemVectorIndex", seed: int = 0) -> "ItemVectorIndex":
        """Embed a *new* city's POIs in ``source``'s coordinate system.

        Accommodation and transportation vectors are one-hot as usual
        (the taxonomy is city-independent); restaurant and attraction
        vectors are fold-in LDA inferences under the source city's
        topic models.  The resulting index shares ``source.schema``, so
        profiles built or refined against one city transfer to the
        other -- the mechanism behind the customization study's
        Paris-to-Barcelona evaluation (Section 4.4.4).
        """
        vectors: dict[int, np.ndarray] = {}
        for cat in (Category.ACCOMMODATION, Category.TRANSPORTATION):
            type_list = source.schema.labels(cat)
            type_index = {t: i for i, t in enumerate(type_list)}
            for poi in dataset.by_category(cat):
                vec = np.zeros(len(type_list))
                slot = type_index.get(poi.type)
                if slot is not None:
                    vec[slot] = 1.0
                vectors[poi.id] = vec
        for cat in _TOPIC_CATEGORIES:
            lda = source._topic_models.get(cat)
            n_topics = source.schema.size(cat)
            for offset, poi in enumerate(dataset.by_category(cat)):
                if lda is None:
                    vectors[poi.id] = np.full(n_topics, 1.0 / n_topics)
                else:
                    vectors[poi.id] = lda.infer_theta(
                        list(poi.tags), seed=seed + offset
                    )
        return cls(source.schema, vectors, dict(source._topic_models))

    def embed(self, poi: POI, seed: int = 0) -> np.ndarray:
        """Embed one *new* POI into the fitted coordinate system, without
        storing it (see :meth:`store`).

        The live-mutation (``add_poi``) counterpart of :meth:`transfer`:
        accommodation / transportation POIs get the usual one-hot type
        vector, restaurants / attractions a fold-in LDA inference under
        the already-fitted topic model (uniform when no model was
        fitted).

        The topic models themselves are **not** refitted; the new POI is
        expressed in the existing coordinate system, which is what keeps
        incremental :class:`~repro.core.arrays.CityArrays` patching
        byte-identical to a fresh build over the same index.
        """
        cat = poi.cat
        if cat in _TOPIC_CATEGORIES:
            lda = self._topic_models.get(cat)
            if lda is None:
                n_topics = self.schema.size(cat)
                vec = np.full(n_topics, 1.0 / n_topics)
            else:
                vec = lda.infer_theta(list(poi.tags), seed=seed)
        else:
            type_list = self.schema.labels(cat)
            type_index = {t: i for i, t in enumerate(type_list)}
            vec = np.zeros(len(type_list))
            slot = type_index.get(poi.type)
            if slot is not None:
                vec[slot] = 1.0
        return vec

    def store(self, poi_id: int, vector: np.ndarray) -> None:
        """Store ``vector`` as the POI's embedding, overwriting any
        previous one, so a close-then-reopen POI re-embeds with its
        current tags.  The index keeps ``vector`` itself: callers must
        not modify it afterwards."""
        previous = self._vectors.get(poi_id)
        if previous is not None:
            self._vector_bytes -= previous.nbytes
        self._vectors[poi_id] = vector
        self._vector_bytes += vector.nbytes
        self._norms[poi_id] = np.linalg.norm(vector)

    def extend_with(self, poi: POI, seed: int = 0) -> np.ndarray:
        """:meth:`embed` then :meth:`store`; returns a copy of the
        stored vector."""
        vec = self.embed(poi, seed=seed)
        self.store(poi.id, vec)
        return vec.copy()

    # -- persistence ----------------------------------------------------------

    def category_vectors(self, dataset: POIDataset) -> dict[Category, tuple[np.ndarray, np.ndarray]]:
        """Per-category ``(ids, matrix)`` pairs covering every POI of
        ``dataset``, in ``by_category`` order -- the columnar form the
        asset store persists."""
        out: dict[Category, tuple[np.ndarray, np.ndarray]] = {}
        for cat in CATEGORIES:
            pois = dataset.by_category(cat)
            ids = np.array([p.id for p in pois], dtype=np.int64)
            matrix = self.stacked((p.id for p in pois),
                                  dim=self.schema.size(cat))
            out[cat] = (ids, matrix)
        return out

    def topic_model_states(self) -> dict[Category, dict]:
        """Fitted sampler state per topic-modelled category (see
        :meth:`~repro.topics.lda.LatentDirichletAllocation.state`)."""
        return {cat: lda.state() for cat, lda in self._topic_models.items()}

    @classmethod
    def restore(cls, dataset: POIDataset, schema: ProfileSchema,
                category_vectors: dict[Category, tuple[np.ndarray, np.ndarray]],
                topic_states: dict[Category, dict]) -> "ItemVectorIndex":
        """Rebuild a fitted index from persisted state.

        The LDA corpora are reconstructed from ``dataset`` (tag bags and
        pruning are deterministic in the dataset, which itself
        round-trips through JSON byte-exactly), so only the count
        matrices travel on disk.  The restored index serves the same
        vector bytes as the index that was persisted.
        """
        vectors: dict[int, np.ndarray] = {}
        for cat in CATEGORIES:
            ids, matrix = category_vectors[cat]
            if len(ids) != matrix.shape[0]:
                raise ValueError(
                    f"category {cat}: {len(ids)} ids vs "
                    f"{matrix.shape[0]} vector rows"
                )
            for poi_id, row in zip(ids, matrix):
                # asarray, not array: when the matrix is a read-only
                # memory-mapped view (segment hydration), each POI's
                # vector stays a view of the shared page-cache bytes
                # instead of a private copy.  ``vector()`` still hands
                # callers defensive copies.
                vectors[int(poi_id)] = np.asarray(row, dtype=float)
        missing = [p.id for p in dataset if p.id not in vectors]
        if missing:
            raise ValueError(f"no persisted vectors for POI ids {missing[:5]}")
        topic_models: dict[Category, LatentDirichletAllocation] = {}
        for cat, state in topic_states.items():
            pois = dataset.by_category(cat)
            corpus = TagCorpus([p.tags for p in pois],
                               min_count=_CORPUS_MIN_COUNT)
            topic_models[cat] = LatentDirichletAllocation.restore(
                corpus, **state
            )
        return cls(schema, vectors, topic_models)

    def nbytes(self) -> int:
        """Estimated resident bytes of the vectors and topic models
        (kept as a running total: no walk over the vectors)."""
        return self._vector_bytes + self._model_bytes

    def vector(self, poi: POI | int) -> np.ndarray:
        """The item vector for a POI (by object or id)."""
        poi_id = poi.id if isinstance(poi, POI) else poi
        try:
            return self._vectors[poi_id].copy()
        except KeyError:
            raise KeyError(f"no item vector for POI id {poi_id}") from None

    def vector_and_norm(self, poi_id: int) -> tuple[np.ndarray, np.floating]:
        """The stored item vector (read-only by contract: no defensive
        copy) and its memoized ``np.linalg.norm``, for per-POI cosine
        loops that must not recompute the norm per call."""
        try:
            return self._vectors[poi_id], self._norms[poi_id]
        except KeyError:
            raise KeyError(f"no item vector for POI id {poi_id}") from None

    def __contains__(self, poi_id: int) -> bool:
        return poi_id in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def topic_model(self, category: Category | str) -> LatentDirichletAllocation:
        """The fitted LDA model for ``rest`` or ``attr``."""
        cat = Category.parse(category)
        try:
            return self._topic_models[cat]
        except KeyError:
            raise KeyError(f"no topic model fitted for category {cat}") from None

    def matrix(self, pois: list[POI]) -> np.ndarray:
        """Stack item vectors for same-category POIs into an ``(n, d)``
        matrix (all POIs must share one category)."""
        if not pois:
            raise ValueError("matrix() needs at least one POI")
        cats = {p.cat for p in pois}
        if len(cats) > 1:
            raise ValueError(f"matrix() requires a single category, got {cats}")
        return np.vstack([self.vector(p) for p in pois])

    def stacked(self, poi_ids, dim: int | None = None) -> np.ndarray:
        """Stack the stored vectors for an iterable of POI ids into an
        ``(n, d)`` matrix, without per-row defensive copies.

        This is the bulk accessor behind the precomputed full matrix in
        :class:`~repro.core.arrays.CityArrays`: the rows are stacked
        exactly as :meth:`matrix` stacks them, one time, instead of per
        scoring call.

        Args:
            poi_ids: Ids whose vectors to stack; all must share one
                dimensionality (i.e. one category).
            dim: Column count for the empty result when ``poi_ids`` is
                empty (``matrix()`` rejects that case; bulk callers need
                a well-shaped ``(0, d)``).
        """
        ids = [poi_id if isinstance(poi_id, int) else int(poi_id)
               for poi_id in poi_ids]
        if not ids:
            return np.empty((0, dim or 0))
        try:
            return np.vstack([self._vectors[i] for i in ids])
        except KeyError as exc:
            raise KeyError(f"no item vector for POI id {exc.args[0]}") from None
