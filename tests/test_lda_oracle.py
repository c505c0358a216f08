"""The scalar Gibbs sweep against the numpy loop it replaced.

``tests/lda_oracle.py`` holds the numpy ``fit`` and ``infer_theta``
loops.  The scalar sweep must make the same draws: equal count
matrices, an equal generator end state and equal topic mixtures, for
any corpus, topic count, prior and seed.  The pairwise-sum helper is
pinned against ``np.add.reduce`` directly, so a numpy release that
changes its reduction order fails here by name.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lda_oracle
from repro.data.poi import Category
from repro.data.synthetic import generate_city
from repro.profiles.vectors import ItemVectorIndex
from repro.topics.corpus import TagCorpus
from repro.reduction import pairwise_sum
from repro.topics.lda import LatentDirichletAllocation, _draw

TAGS = [f"tag{i}" for i in range(12)]

#: Corpora with empty, one-token and longer documents over a small
#: vocabulary; at least one tag overall, so the vocabulary is never
#: empty.
corpora = st.lists(
    st.lists(st.sampled_from(TAGS), max_size=8), min_size=1, max_size=10,
).filter(lambda docs: any(docs)).map(TagCorpus)
topic_counts = st.integers(1, 20)
alphas = st.floats(0.01, 60.0)
betas = st.floats(0.001, 2.0)
seeds = st.integers(0, 2**32 - 1)


def assert_same_fit(fast: LatentDirichletAllocation,
                    reference: LatentDirichletAllocation) -> None:
    for key, value in reference.state().items():
        got = fast.state()[key]
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype, key
            assert got.flags.c_contiguous, key
            np.testing.assert_array_equal(got, value, err_msg=key)
        else:
            assert got == value, key
    assert fast._rng.bit_generator.state == reference._rng.bit_generator.state
    np.testing.assert_array_equal(fast.document_topics(),
                                  reference.document_topics())


def fit_both(corpus, n_topics, alpha, beta, n_iterations, seed):
    params = dict(n_topics=n_topics, alpha=alpha, beta=beta,
                  n_iterations=n_iterations, seed=seed)
    fast = LatentDirichletAllocation(**params).fit(corpus)
    reference = lda_oracle.fit(LatentDirichletAllocation(**params), corpus)
    return fast, reference


class TestPairwiseSum:
    def test_matches_numpy_reduce(self):
        """Every length through the 8-accumulator block and the
        recursive split above 128, on addends whose magnitudes span ten
        decades so that any change of order shows in the last bits."""
        rng = np.random.default_rng(0)
        for n in range(1, 301):
            for _ in range(5):
                x = rng.random(n) * 10.0 ** rng.uniform(-5, 5, n)
                assert pairwise_sum(x.tolist()) == np.add.reduce(x), n


class TestDraw:
    def test_matches_generator_choice(self):
        """``_draw`` returns what ``choice`` returns after consuming the
        same uniform, for weights spanning six decades and K to 40."""
        rng = np.random.default_rng(1)
        for seed in range(2000):
            k = int(rng.integers(1, 41))
            weights = rng.random(k) * 10.0 ** rng.uniform(-3, 3, k)
            sampler = np.random.default_rng(seed)
            expected = int(sampler.choice(k, p=weights / weights.sum()))
            u = np.random.default_rng(seed).random()
            assert _draw(weights.tolist(), u) == expected, seed

    def test_uniform_on_a_bin_edge(self):
        """A uniform equal to a normalised cumulative sum, or one ulp to
        either side, falls where ``searchsorted(side='right')`` puts it
        -- the case the bisect-then-walk search must get exactly."""
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(2, 20))
            weights = rng.random(k) * 10.0 ** rng.uniform(-3, 3, k)
            p = weights / weights.sum()
            cdf = p.cumsum()
            cdf /= cdf[-1]
            for edge in cdf[:-1]:
                for u in (np.nextafter(edge, 0.0), edge,
                          np.nextafter(edge, 1.0)):
                    expected = int(cdf.searchsorted(u, side="right"))
                    assert _draw(weights.tolist(), float(u)) == expected


class TestFitMatchesOracle:
    @given(corpus=corpora, n_topics=topic_counts, alpha=alphas,
           beta=betas, n_iterations=st.integers(1, 5), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_random_corpora(self, corpus, n_topics, alpha, beta,
                            n_iterations, seed):
        assert_same_fit(*fit_both(corpus, n_topics, alpha, beta,
                                  n_iterations, seed))

    @pytest.mark.parametrize("n_topics", [1, 7, 8, 9, 12, 16, 130])
    def test_topic_counts_around_the_sum_blocks(self, n_topics):
        """Below, at and above the 8-term block, a sequential tail, and
        past the 128-term split."""
        rng = np.random.default_rng(n_topics)
        docs = [[TAGS[int(i)] for i in rng.integers(0, len(TAGS), size=n)]
                for n in rng.integers(0, 9, size=25)]
        assert_same_fit(*fit_both(TagCorpus(docs), n_topics, None, 0.01,
                                  3, n_topics))

    def test_paris_item_vectors(self, monkeypatch):
        """A whole ``ItemVectorIndex`` -- both topic models, every
        vector and the topic labels -- equals one fitted by the oracle."""
        dataset = generate_city("paris", scale=0.25)
        fast = ItemVectorIndex.fit(dataset, lda_iterations=20, seed=3)
        monkeypatch.setattr(LatentDirichletAllocation, "fit", lda_oracle.fit)
        reference = ItemVectorIndex.fit(dataset, lda_iterations=20, seed=3)
        assert fast.schema == reference.schema
        for cat in (Category.RESTAURANT, Category.ATTRACTION):
            assert_same_fit(fast.topic_model(cat), reference.topic_model(cat))
        for poi in dataset:
            np.testing.assert_array_equal(fast.vector(poi),
                                          reference.vector(poi))


class TestFoldInMatchesOracle:
    @given(corpus=corpora, n_topics=topic_counts, alpha=alphas,
           beta=betas, seed=seeds,
           tags=st.lists(st.sampled_from(TAGS + ["unseen"]), max_size=8),
           n_iterations=st.integers(0, 5), fold_seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_random_documents(self, corpus, n_topics, alpha, beta, seed,
                              tags, n_iterations, fold_seed):
        model = LatentDirichletAllocation(n_topics, alpha=alpha, beta=beta,
                                          n_iterations=1, seed=seed)
        model.fit(corpus)
        np.testing.assert_array_equal(
            model.infer_theta(tags, n_iterations=n_iterations,
                              seed=fold_seed),
            lda_oracle.infer_theta(model, tags, n_iterations=n_iterations,
                                   seed=fold_seed),
        )
