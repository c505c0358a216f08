"""Tests for the tag corpus and the collapsed-Gibbs LDA."""

import numpy as np
import pytest

from repro.topics.corpus import TagCorpus
from repro.topics.lda import LatentDirichletAllocation


@pytest.fixture(scope="module")
def two_topic_corpus():
    """A corpus with two obvious latent topics."""
    rng = np.random.default_rng(0)
    food = ["sushi", "ramen", "sake", "japanese", "tempura"]
    art = ["museum", "gallery", "paintings", "sculpture", "exhibition"]
    docs = []
    for _ in range(40):
        vocab = food if rng.uniform() < 0.5 else art
        docs.append([vocab[int(i)] for i in rng.integers(0, 5, size=6)])
    return TagCorpus(docs)


class TestTagCorpus:
    def test_vocabulary_and_tokens(self):
        corpus = TagCorpus([("a", "b"), ("b", "c")])
        assert corpus.vocabulary_size == 3
        assert corpus.total_tokens() == 4
        assert corpus.word(corpus.token_id("b")) == "b"

    def test_min_count_prunes_rare_tags(self):
        corpus = TagCorpus([("a", "b"), ("b", "c")], min_count=2)
        assert corpus.vocabulary == ("b",)
        assert len(corpus.document(0)) == 1

    def test_document_order_preserved(self):
        corpus = TagCorpus([("a",), ("b",), ("a", "b")])
        assert len(corpus) == 3
        assert [len(corpus.document(i)) for i in range(3)] == [1, 1, 2]

    def test_empty_documents_allowed(self):
        corpus = TagCorpus([(), ("a",)])
        assert len(corpus.document(0)) == 0


class TestLDA:
    def test_requires_positive_parameters(self):
        with pytest.raises(ValueError):
            LatentDirichletAllocation(0)
        with pytest.raises(ValueError):
            LatentDirichletAllocation(2, n_iterations=0)
        for prior in ("alpha", "beta"):
            for value in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"{prior} must be"):
                    LatentDirichletAllocation(2, **{prior: value})

    def test_default_alpha_is_griffiths(self):
        assert LatentDirichletAllocation(10).alpha == pytest.approx(5.0)

    def test_fit_on_empty_vocabulary_raises(self):
        with pytest.raises(ValueError, match="empty vocabulary"):
            LatentDirichletAllocation(2).fit(TagCorpus([]))

    def test_unfitted_access_raises(self):
        lda = LatentDirichletAllocation(2)
        with pytest.raises(RuntimeError, match="not fitted"):
            lda.document_topics()

    def test_document_topics_rows_sum_to_one(self, two_topic_corpus):
        lda = LatentDirichletAllocation(3, n_iterations=20, seed=1)
        theta = lda.fit(two_topic_corpus).document_topics()
        assert theta.shape == (len(two_topic_corpus), 3)
        assert np.allclose(theta.sum(axis=1), 1.0)
        assert (theta >= 0).all()

    def test_topic_words_rows_sum_to_one(self, two_topic_corpus):
        lda = LatentDirichletAllocation(3, n_iterations=20, seed=1)
        phi = lda.fit(two_topic_corpus).topic_words()
        assert np.allclose(phi.sum(axis=1), 1.0)

    def test_recovers_planted_topics(self, two_topic_corpus):
        """With a sparse prior, food and art tags should separate."""
        lda = LatentDirichletAllocation(2, alpha=0.1, n_iterations=80, seed=2)
        lda.fit(two_topic_corpus)
        top0 = set(lda.top_words(0, n=5))
        top1 = set(lda.top_words(1, n=5))
        food = {"sushi", "ramen", "sake", "japanese", "tempura"}
        art = {"museum", "gallery", "paintings", "sculpture", "exhibition"}
        # One topic should be mostly food, the other mostly art.
        purity = max(len(top0 & food) + len(top1 & art),
                     len(top0 & art) + len(top1 & food))
        assert purity >= 8

    def test_perplexity_better_than_uniform(self, two_topic_corpus):
        lda = LatentDirichletAllocation(2, alpha=0.1, n_iterations=60, seed=3)
        lda.fit(two_topic_corpus)
        uniform_perplexity = two_topic_corpus.vocabulary_size
        assert lda.perplexity() < uniform_perplexity

    def test_deterministic_given_seed(self, two_topic_corpus):
        a = LatentDirichletAllocation(2, n_iterations=10, seed=5).fit(two_topic_corpus)
        b = LatentDirichletAllocation(2, n_iterations=10, seed=5).fit(two_topic_corpus)
        assert np.allclose(a.document_topics(), b.document_topics())

    def test_topic_labels_shape(self, two_topic_corpus):
        lda = LatentDirichletAllocation(2, n_iterations=10, seed=1)
        labels = lda.fit(two_topic_corpus).topic_labels(n_words=3)
        assert len(labels) == 2
        assert all(len(label.split(", ")) == 3 for label in labels)


class TestFoldIn:
    def test_infer_theta_sums_to_one(self, two_topic_corpus):
        lda = LatentDirichletAllocation(2, alpha=0.1, n_iterations=60, seed=2)
        lda.fit(two_topic_corpus)
        theta = lda.infer_theta(["sushi", "ramen", "sake"])
        assert theta.shape == (2,)
        assert theta.sum() == pytest.approx(1.0)

    def test_infer_theta_assigns_right_topic(self, two_topic_corpus):
        lda = LatentDirichletAllocation(2, alpha=0.1, n_iterations=60, seed=2)
        lda.fit(two_topic_corpus)
        food_theta = lda.infer_theta(["sushi", "ramen", "sake", "tempura"])
        art_theta = lda.infer_theta(["museum", "gallery", "paintings"])
        assert np.argmax(food_theta) != np.argmax(art_theta)

    def test_unknown_tags_fall_back_to_uniform(self, two_topic_corpus):
        lda = LatentDirichletAllocation(2, n_iterations=10, seed=2)
        lda.fit(two_topic_corpus)
        theta = lda.infer_theta(["quantum", "blockchain"])
        assert np.allclose(theta, 0.5)
