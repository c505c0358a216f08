"""Latent Dirichlet Allocation via collapsed Gibbs sampling.

A from-scratch implementation (Griffiths & Steyvers, 2004) sufficient
for the paper's use: discover ``K`` latent topics over POI tag bags, and
expose

* per-document topic distributions ``theta`` -- the item vectors for
  restaurants and attractions (Section 3.2), and
* per-topic top words -- the "representative tags" users rate to build
  their profiles (Section 2.2).

The sampler keeps the usual count matrices and resamples every token's
topic assignment from the collapsed conditional

    p(z = k | rest) ∝ (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta)

Deterministic given the seed.

The sweep is plain-Python scalar arithmetic over count lists: with
``K`` around 8, numpy's per-call dispatch on length-``K`` vectors costs
far more than the arithmetic.  It still makes the draws the obvious
numpy loop makes -- computing each token's weights elementwise and
calling ``Generator.choice(K, p=weights / weights.sum())`` -- bit for
bit, so item vectors, stored count matrices and every package built
from them do not depend on which of the two ran.  The contract has two
halves:

* :func:`~repro.reduction.pairwise_sum` adds in the order
  ``weights.sum()`` uses.
* :func:`_draw` repeats ``choice``'s arithmetic: ``p = w / s``, a
  sequential cumulative sum, each entry divided by the last, then a
  right-side search for the one uniform ``choice`` would consume.  A
  sweep draws those uniforms with one ``Generator.random(n)``, the
  same stream ``choice`` reads one double at a time.

Weights are positive whenever ``alpha`` and ``beta`` are positive and
finite, which the constructor enforces (counts never go negative), so ``choice``'s probability checks cannot fail and are
not repeated.  ``tests/lda_oracle.py`` keeps the numpy loop; the tests
pin the sweep, the fold-in and ``pairwise_sum`` against it and
against ``np.add.reduce``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from operator import mul, truediv

import numpy as np

from repro.reduction import pairwise_sum
from repro.topics.corpus import TagCorpus


def _draw(weights: list[float], u: float) -> int:
    """The index ``Generator.choice(len(weights), p=weights / sum)``
    returns when its uniform is ``u``.

    ``choice`` normalises ``p`` into ``cdf = cumsum(p) / cumsum(p)[-1]``
    and returns ``searchsorted(cdf, u, side='right')``.  The last running
    sum is often exactly 1.0, and dividing by 1.0 changes nothing, so
    the divide is skipped then.
    """
    total = pairwise_sum(weights)
    cdf = list(accumulate(map(total.__rtruediv__, weights)))
    last = cdf[-1]
    if last != 1.0:
        cdf = list(map(last.__rtruediv__, cdf))
    return bisect_right(cdf, u)


class LatentDirichletAllocation:
    """Collapsed-Gibbs LDA.

    Args:
        n_topics: Number of latent topics ``K``.
        alpha: Symmetric Dirichlet prior on document-topic mixtures.
            Defaults to ``50 / K`` (Griffiths & Steyvers).  On short
            tag bags this prior keeps document-topic distributions
            smooth -- each POI retains a dominant topic but stays
            broadly comparable to every profile, which is the regime
            the paper's Table 2 personalization numbers reflect.  Pass
            a small value (e.g. 0.1) for sharply discriminative item
            vectors instead.
        beta: Symmetric Dirichlet prior on topic-word distributions.
        n_iterations: Gibbs sweeps over the corpus.
        seed: Random seed.

    Raises:
        ValueError: if ``n_topics`` or ``n_iterations`` is below 1, or
            ``alpha`` or ``beta`` is not a positive finite number.
    """

    def __init__(self, n_topics: int, alpha: float | None = None,
                 beta: float = 0.01, n_iterations: int = 200,
                 seed: int = 0) -> None:
        if n_topics < 1:
            raise ValueError("n_topics must be at least 1")
        if n_iterations < 1:
            raise ValueError("n_iterations must be at least 1")
        self.n_topics = n_topics
        self.alpha = 50.0 / n_topics if alpha is None else alpha
        self.beta = beta
        for name, value in (("alpha", self.alpha), ("beta", beta)):
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be a positive finite number, got {value!r}"
                )
        self.n_iterations = n_iterations
        self._rng = np.random.default_rng(seed)
        self._corpus: TagCorpus | None = None
        self._doc_topic: np.ndarray | None = None   # (D, K) counts
        self._topic_word: np.ndarray | None = None  # (K, V) counts
        self._topic_totals: np.ndarray | None = None  # (K,) counts

    # -- training -----------------------------------------------------------

    def fit(self, corpus: TagCorpus) -> "LatentDirichletAllocation":
        """Run the Gibbs sampler on ``corpus`` and keep the final state."""
        if corpus.vocabulary_size == 0:
            raise ValueError("cannot fit LDA on an empty vocabulary")
        self._corpus = corpus
        n_topics = self.n_topics
        vocab = corpus.vocabulary_size
        # Python floats: the values numpy would use, at scalar speed.
        alpha = float(self.alpha)
        beta = float(self.beta)
        beta_sum = beta * vocab
        docs = [tokens.tolist() for tokens in corpus.documents()]

        # Counts as lists: doc_topic (D, K), topic_totals (K,) and
        # word_topic (V, K), transposed so a token's K counts are one row.
        doc_topic = [[0] * n_topics for _ in docs]
        word_topic = [[0] * n_topics for _ in range(vocab)]
        topic_totals = [0] * n_topics
        assignments: list[list[int]] = []

        # Random initialization of topic assignments.
        for tokens, counts in zip(docs, doc_topic):
            z = self._rng.integers(0, n_topics, size=len(tokens)).tolist()
            assignments.append(z)
            for token, topic in zip(tokens, z):
                counts[topic] += 1
                word_topic[token][topic] += 1
                topic_totals[topic] += 1

        # Each count plus its prior, the factors of the weight
        # (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta); a token
        # refreshes only the entries of the two topics it moves between.
        doc_factor = [[n + alpha for n in counts] for counts in doc_topic]
        word_factor = [[n + beta for n in counts] for counts in word_topic]
        total_factor = [n + beta_sum for n in topic_totals]

        n_tokens = corpus.total_tokens()
        for _ in range(self.n_iterations):
            uniforms = iter(self._rng.random(n_tokens).tolist())
            for tokens, z, counts, factors in zip(docs, assignments,
                                                  doc_topic, doc_factor):
                for pos, token in enumerate(tokens):
                    word_counts = word_topic[token]
                    word_factors = word_factor[token]
                    old = z[pos]
                    n = counts[old] - 1
                    counts[old] = n
                    factors[old] = n + alpha
                    n = word_counts[old] - 1
                    word_counts[old] = n
                    word_factors[old] = n + beta
                    n = topic_totals[old] - 1
                    topic_totals[old] = n
                    total_factor[old] = n + beta_sum

                    weights = list(map(truediv,
                                       map(mul, factors, word_factors),
                                       total_factor))
                    new = _draw(weights, next(uniforms))

                    z[pos] = new
                    n = counts[new] + 1
                    counts[new] = n
                    factors[new] = n + alpha
                    n = word_counts[new] + 1
                    word_counts[new] = n
                    word_factors[new] = n + beta
                    n = topic_totals[new] + 1
                    topic_totals[new] = n
                    total_factor[new] = n + beta_sum

        self._doc_topic = np.array(doc_topic, dtype=np.int64)
        self._topic_word = np.ascontiguousarray(
            np.array(word_topic, dtype=np.int64).T)
        self._topic_totals = np.array(topic_totals, dtype=np.int64)
        return self

    def _require_fitted(self) -> None:
        if self._doc_topic is None:
            raise RuntimeError("LDA model is not fitted; call fit() first")

    # -- persistence ----------------------------------------------------------

    def state(self) -> dict:
        """The fitted sampler state, as plain arrays and scalars.

        Everything a :meth:`restore` needs except the corpus itself
        (which is rebuilt deterministically from the dataset it came
        from).  The count matrices fully determine every inference
        output -- ``document_topics``, ``topic_words``, fold-in -- so a
        restored model answers bit-for-bit like the fitted one.
        """
        self._require_fitted()
        return {
            "n_topics": self.n_topics,
            "alpha": self.alpha,
            "beta": self.beta,
            "n_iterations": self.n_iterations,
            "doc_topic": self._doc_topic,
            "topic_word": self._topic_word,
            "topic_totals": self._topic_totals,
        }

    @classmethod
    def restore(cls, corpus: TagCorpus, *, n_topics: int, alpha: float,
                beta: float, n_iterations: int, doc_topic: np.ndarray,
                topic_word: np.ndarray, topic_totals: np.ndarray,
                seed: int = 0) -> "LatentDirichletAllocation":
        """A fitted model from :meth:`state` arrays plus its corpus.

        Shapes are validated against ``corpus`` so a truncated or
        mismatched payload raises ``ValueError`` instead of producing a
        silently wrong model.
        """
        doc_topic = np.asarray(doc_topic, dtype=np.int64)
        topic_word = np.asarray(topic_word, dtype=np.int64)
        topic_totals = np.asarray(topic_totals, dtype=np.int64)
        if doc_topic.shape != (len(corpus), n_topics):
            raise ValueError(
                f"doc_topic shape {doc_topic.shape} does not match "
                f"({len(corpus)}, {n_topics})"
            )
        if topic_word.shape != (n_topics, corpus.vocabulary_size):
            raise ValueError(
                f"topic_word shape {topic_word.shape} does not match "
                f"({n_topics}, {corpus.vocabulary_size})"
            )
        if topic_totals.shape != (n_topics,):
            raise ValueError(
                f"topic_totals shape {topic_totals.shape} does not match "
                f"({n_topics},)"
            )
        model = cls(n_topics=n_topics, alpha=alpha, beta=beta,
                    n_iterations=n_iterations, seed=seed)
        model._corpus = corpus
        model._doc_topic = doc_topic
        model._topic_word = topic_word
        model._topic_totals = topic_totals
        return model

    # -- inference outputs ----------------------------------------------------

    def document_topics(self) -> np.ndarray:
        """``(D, K)`` matrix of per-document topic distributions.

        Rows sum to 1.  Empty documents get the uniform distribution, so
        downstream item vectors are always well-formed.
        """
        self._require_fitted()
        counts = self._doc_topic.astype(float) + self.alpha
        theta = counts / counts.sum(axis=1, keepdims=True)
        assert self._corpus is not None
        for d in range(len(self._corpus)):
            if len(self._corpus.document(d)) == 0:
                theta[d] = 1.0 / self.n_topics
        return theta

    def topic_words(self) -> np.ndarray:
        """``(K, V)`` matrix of per-topic word distributions (rows sum to 1)."""
        self._require_fitted()
        counts = self._topic_word.astype(float) + self.beta
        return counts / counts.sum(axis=1, keepdims=True)

    def top_words(self, topic: int, n: int = 5) -> list[str]:
        """The ``n`` most probable tags of a topic -- its display label.

        These are the "representative tags" shown to users when they
        rate latent topics (Section 2.2).
        """
        self._require_fitted()
        assert self._corpus is not None
        phi = self.topic_words()[topic]
        order = np.argsort(phi)[::-1][:n]
        return [self._corpus.word(int(i)) for i in order]

    def topic_labels(self, n_words: int = 3) -> list[str]:
        """Comma-joined top-word labels for every topic."""
        return [", ".join(self.top_words(k, n_words)) for k in range(self.n_topics)]

    def infer_theta(self, tags: list[str], n_iterations: int = 50,
                    seed: int = 0) -> np.ndarray:
        """Fold-in inference: the topic distribution of an *unseen*
        document under the trained topics.

        Runs a short Gibbs chain with the topic-word distributions held
        fixed.  Tags absent from the training vocabulary are ignored; a
        document with no known tags gets the uniform distribution.

        This is how item vectors transfer across cities (Section 3.3's
        "robustness of the updated profile across cities"): Barcelona
        POIs are embedded in the *Paris* topic space so a profile
        refined in one city stays meaningful in the other.
        """
        self._require_fitted()
        assert self._corpus is not None
        phi = self.topic_words()
        tokens = []
        for tag in tags:
            try:
                tokens.append(self._corpus.token_id(tag))
            except KeyError:
                continue
        if not tokens:
            return np.full(self.n_topics, 1.0 / self.n_topics)

        rng = np.random.default_rng(seed)
        z = rng.integers(0, self.n_topics, size=len(tokens)).tolist()
        counts = np.bincount(z, minlength=self.n_topics).tolist()
        alpha = float(self.alpha)
        factors = [n + alpha for n in counts]
        columns = [phi[:, token].tolist() for token in tokens]
        for _ in range(n_iterations):
            uniforms = rng.random(len(tokens)).tolist()
            for pos, (column, u) in enumerate(zip(columns, uniforms)):
                old = z[pos]
                counts[old] -= 1
                factors[old] = counts[old] + alpha
                new = _draw(list(map(mul, factors, column)), u)
                z[pos] = new
                counts[new] += 1
                factors[new] = counts[new] + alpha
        theta = np.array(counts, dtype=float) + self.alpha
        return theta / theta.sum()

    def perplexity(self) -> float:
        """Corpus perplexity under the trained model (lower is better).

        Used in tests to confirm the sampler actually improves on a
        random topic assignment.
        """
        self._require_fitted()
        assert self._corpus is not None
        theta = self.document_topics()
        phi = self.topic_words()
        log_likelihood = 0.0
        n_tokens = 0
        for d, tokens in enumerate(self._corpus.documents()):
            if len(tokens) == 0:
                continue
            word_probs = theta[d] @ phi[:, tokens]
            log_likelihood += float(np.log(np.maximum(word_probs, 1e-300)).sum())
            n_tokens += len(tokens)
        if n_tokens == 0:
            return float("inf")
        return float(np.exp(-log_likelihood / n_tokens))
