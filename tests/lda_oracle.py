"""The numpy collapsed-Gibbs loops, kept as a test oracle.

``repro.topics.lda`` sweeps in plain-Python scalar arithmetic.  This
module is the reference it must match bit for bit: per token it forms
the weight vector with numpy, sums it with ``ndarray.sum`` and draws
with ``Generator.choice(K, p=...)``.  The loops are the sampler's
original bodies with ``self`` renamed ``model``; :func:`fit` leaves the
same state on ``model`` (count matrices and the generator) that
``model.fit`` does.
"""

from __future__ import annotations

import numpy as np

from repro.topics.corpus import TagCorpus
from repro.topics.lda import LatentDirichletAllocation


def fit(model: LatentDirichletAllocation,
        corpus: TagCorpus) -> LatentDirichletAllocation:
    """Run the numpy Gibbs sampler on ``corpus`` and keep the final state."""
    if corpus.vocabulary_size == 0:
        raise ValueError("cannot fit LDA on an empty vocabulary")
    model._corpus = corpus
    n_docs = len(corpus)
    vocab = corpus.vocabulary_size
    docs = corpus.documents()

    doc_topic = np.zeros((n_docs, model.n_topics), dtype=np.int64)
    topic_word = np.zeros((model.n_topics, vocab), dtype=np.int64)
    topic_totals = np.zeros(model.n_topics, dtype=np.int64)
    assignments: list[np.ndarray] = []

    # Random initialization of topic assignments.
    for d, tokens in enumerate(docs):
        z = model._rng.integers(0, model.n_topics, size=len(tokens))
        assignments.append(z)
        for token, topic in zip(tokens, z):
            doc_topic[d, topic] += 1
            topic_word[topic, token] += 1
            topic_totals[topic] += 1

    beta_sum = model.beta * vocab
    for _ in range(model.n_iterations):
        for d, tokens in enumerate(docs):
            z = assignments[d]
            for pos, token in enumerate(tokens):
                old = z[pos]
                doc_topic[d, old] -= 1
                topic_word[old, token] -= 1
                topic_totals[old] -= 1

                weights = ((doc_topic[d] + model.alpha)
                           * (topic_word[:, token] + model.beta)
                           / (topic_totals + beta_sum))
                weights_sum = weights.sum()
                new = int(model._rng.choice(model.n_topics,
                                            p=weights / weights_sum))
                z[pos] = new
                doc_topic[d, new] += 1
                topic_word[new, token] += 1
                topic_totals[new] += 1

    model._doc_topic = doc_topic
    model._topic_word = topic_word
    model._topic_totals = topic_totals
    return model


def infer_theta(model: LatentDirichletAllocation, tags: list[str],
                n_iterations: int = 50, seed: int = 0) -> np.ndarray:
    """Fold-in inference of an unseen document with the numpy loop."""
    model._require_fitted()
    assert model._corpus is not None
    phi = model.topic_words()
    tokens = []
    for tag in tags:
        try:
            tokens.append(model._corpus.token_id(tag))
        except KeyError:
            continue
    if not tokens:
        return np.full(model.n_topics, 1.0 / model.n_topics)

    rng = np.random.default_rng(seed)
    z = rng.integers(0, model.n_topics, size=len(tokens))
    counts = np.bincount(z, minlength=model.n_topics).astype(float)
    for _ in range(n_iterations):
        for pos, token in enumerate(tokens):
            counts[z[pos]] -= 1
            weights = (counts + model.alpha) * phi[:, token]
            new = int(rng.choice(model.n_topics, p=weights / weights.sum()))
            z[pos] = new
            counts[new] += 1
    theta = counts + model.alpha
    return theta / theta.sum()
