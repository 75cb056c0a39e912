"""The tag-topic model: ``p(w|z)``, ``p(z)`` and the Eqn. 1 posterior.

:class:`TagTopicModel` is the object every PITEX method queries to turn a tag
set ``W`` into the topic posterior ``p(z|W)`` and, combined with a
:class:`~repro.graph.digraph.TopicSocialGraph`, into per-edge activation
probabilities ``p(e|W)``.  It also hosts the per-tag "Jensen ratios" used by
the Lemma 8 upper bound of best-effort exploration.
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError, UnknownTagError
from repro.graph.digraph import TopicSocialGraph

#: A ``p+`` row plan (:meth:`TagTopicModel._row_plan`): support topics, the
#: Lemma 8 topic bound, and its one positive topic or ``-1``.
_RowPlan = Tuple[Tuple[int, ...], np.ndarray, int]
#: What fixes a ``p+`` row on a given graph (:meth:`TagTopicModel._row_key`).
RowKey = Tuple[Tuple[int, ...], bytes]


class TagTopicModel:
    """Tag vocabulary, tag-topic likelihoods and topic prior.

    Parameters
    ----------
    tag_topic_matrix:
        ``(|Omega|, |Z|)`` matrix of ``p(w|z)`` likelihoods.  Rows are tags,
        columns are topics.  Values must be non-negative; the model does not
        require columns to be normalized (only relative magnitudes matter for
        the posterior).
    topic_prior:
        Optional ``p(z)`` vector; defaults to the uniform prior used by the
        running example of the paper.
    tags:
        Optional list of tag strings; defaults to ``w0 .. w_{|Omega|-1}``.
    """

    def __init__(
        self,
        tag_topic_matrix: Sequence[Sequence[float]],
        topic_prior: Optional[Sequence[float]] = None,
        tags: Optional[Sequence[str]] = None,
    ) -> None:
        matrix = np.asarray(tag_topic_matrix, dtype=float)
        if matrix.ndim != 2:
            raise ModelError("tag_topic_matrix must be two-dimensional (tags x topics)")
        if np.any(matrix < 0.0):
            raise ModelError("tag_topic_matrix entries must be non-negative")
        self._matrix = matrix
        self._num_tags, self._num_topics = matrix.shape
        if topic_prior is None:
            prior = np.full(self._num_topics, 1.0 / self._num_topics)
        else:
            prior = np.asarray(topic_prior, dtype=float)
            if prior.shape != (self._num_topics,):
                raise ModelError(
                    f"topic_prior must have length {self._num_topics}, got {prior.shape}"
                )
            if np.any(prior < 0.0) or prior.sum() <= 0.0:
                raise ModelError("topic_prior must be non-negative and sum to a positive value")
            prior = prior / prior.sum()
        self._prior = prior
        if tags is None:
            self._tags = [f"w{i}" for i in range(self._num_tags)]
        else:
            if len(tags) != self._num_tags:
                raise ModelError(
                    f"expected {self._num_tags} tag names, got {len(tags)}"
                )
            if len(set(tags)) != len(tags):
                raise ModelError("tag names must be unique")
            self._tags = list(tags)
        self._tag_index: Dict[str, int] = {tag: i for i, tag in enumerate(self._tags)}
        self._posterior_cache: Dict[Tuple[int, ...], np.ndarray] = {}
        self._plan_cache: Dict[Tuple[Tuple[int, ...], int], _RowPlan] = {}
        self._jensen_ratios: Optional[np.ndarray] = None
        self._content_hash: Optional[str] = None

    # ----------------------------------------------------- shared-array codec
    @classmethod
    def from_shared_arrays(
        cls,
        tag_topic_matrix: Sequence[Sequence[float]],
        topic_prior: Sequence[float],
        tags: Sequence[str],
    ) -> "TagTopicModel":
        """Rebuild a model from persisted arrays, bitwise-exactly.

        The constructor re-normalizes any explicit ``topic_prior``; feeding an
        already-normalized persisted prior back through that division can
        perturb its last bits (e.g. the uniform prior over 3 topics sums to
        ``0.999...``), which would change :meth:`content_hash` and break the
        cross-process replica contract of :mod:`repro.serve.sharded`.  This
        path restores the prior verbatim instead -- the caller asserts it was
        taken from a model's :attr:`topic_prior`, i.e. already normalized.
        """
        model = cls(tag_topic_matrix, topic_prior=None, tags=list(tags))
        prior = np.asarray(topic_prior, dtype=float)
        if prior.shape != (model.num_topics,):
            raise ModelError(
                f"topic_prior must have length {model.num_topics}, got {prior.shape}"
            )
        model._prior = prior
        return model

    # ------------------------------------------------------------------ sizes
    @property
    def num_tags(self) -> int:
        """Vocabulary size ``|Omega|``."""
        return self._num_tags

    @property
    def num_topics(self) -> int:
        """Number of topics ``|Z|``."""
        return self._num_topics

    @property
    def tags(self) -> List[str]:
        """Tag vocabulary as a list of strings."""
        return list(self._tags)

    @property
    def topic_prior(self) -> np.ndarray:
        """The (normalized) topic prior ``p(z)``."""
        return self._prior

    @property
    def tag_topic_matrix(self) -> np.ndarray:
        """The ``p(w|z)`` matrix (tags x topics)."""
        return self._matrix

    # -------------------------------------------------------------- tag lookup
    def tag_id(self, tag: str) -> int:
        """Numeric id of a tag string."""
        try:
            return self._tag_index[tag]
        except KeyError as exc:
            raise UnknownTagError(f"unknown tag {tag!r}") from exc

    def tag_name(self, tag_id: int) -> str:
        """Tag string for a numeric id."""
        if not 0 <= tag_id < self._num_tags:
            raise UnknownTagError(f"tag id {tag_id} out of range")
        return self._tags[tag_id]

    def resolve_tags(self, tags: Iterable) -> Tuple[int, ...]:
        """Normalize a mixed iterable of tag strings / ids into a sorted id tuple."""
        resolved = []
        for tag in tags:
            if isinstance(tag, str):
                resolved.append(self.tag_id(tag))
            else:
                tag = int(tag)
                if not 0 <= tag < self._num_tags:
                    raise UnknownTagError(f"tag id {tag} out of range")
                resolved.append(tag)
        return tuple(sorted(set(resolved)))

    def tag_names(self, tag_ids: Iterable[int]) -> List[str]:
        """Tag strings for an iterable of ids."""
        return [self.tag_name(t) for t in tag_ids]

    # ---------------------------------------------------------------- posterior
    def topic_posterior(self, tag_set: Iterable) -> np.ndarray:
        """``p(z|W)`` for a tag set ``W`` (Eqn. 1 of the paper).

        ``p(z|W)`` is proportional to ``p(z) * prod_{w in W} p(w|z)``.  When the
        normalizer is zero (no topic supports all tags simultaneously), the
        posterior is defined as the all-zero vector, which makes every edge
        probability -- and therefore the influence beyond the seed -- zero.
        An empty tag set returns the prior.
        """
        return self.posterior_of_ids(self.resolve_tags(tag_set))

    def posterior_of_ids(self, tag_ids: Tuple[int, ...]) -> np.ndarray:
        """:meth:`topic_posterior` of a sorted tag-id tuple, without resolving it.

        ``tag_ids`` must be in :meth:`resolve_tags` form.  Queries resolve their
        tags once at the engine boundary; the explorer and the estimators read
        posteriors here.

        The cache insert uses ``setdefault`` so concurrent readers (frozen
        engines answer queries from several threads) racing on a miss all end
        up with the *same* cached array: the computation is a pure function of
        the immutable matrix/prior, so whichever thread wins stores a value
        bitwise identical to every loser's -- an idempotent, benign race under
        the GIL's atomic dict operations.
        """
        cached = self._posterior_cache.get(tag_ids)
        if cached is not None:
            return cached
        if not tag_ids:
            posterior = self._prior.copy()
        else:
            likelihood = np.ones(self._num_topics)
            for tag in tag_ids:
                likelihood *= self._matrix[tag]
            weighted = likelihood * self._prior
            total = weighted.sum()
            posterior = weighted / total if total > 0.0 else np.zeros(self._num_topics)
        return self._posterior_cache.setdefault(tag_ids, posterior)

    def posterior_support(self, tag_set: Iterable) -> np.ndarray:
        """Boolean mask of topics with ``p(z|W) > 0``."""
        return self.topic_posterior(tag_set) > 0.0

    def edge_probabilities(self, graph: TopicSocialGraph, tag_set: Iterable) -> np.ndarray:
        """``p(e|W)`` for every edge of ``graph`` under tag set ``W``."""
        if graph.num_topics != self._num_topics:
            raise ModelError(
                f"graph has {graph.num_topics} topics but the model has {self._num_topics}"
            )
        posterior = self.topic_posterior(tag_set)
        return graph.edge_probabilities_under(posterior)

    def edge_probability(self, graph: TopicSocialGraph, source: int, target: int, tag_set: Iterable) -> float:
        """``p(e|W)`` for one edge identified by its endpoints."""
        edge_id = graph.edge_id(source, target)
        posterior = self.topic_posterior(tag_set)
        return graph.edge_probability_under(edge_id, posterior)

    # ------------------------------------------------------------ enumeration
    def candidate_tag_sets(self, k: int) -> Iterable[Tuple[int, ...]]:
        """All size-``k`` tag subsets of the vocabulary, as sorted id tuples."""
        if k <= 0:
            raise ModelError(f"k must be positive, got {k}")
        if k > self._num_tags:
            raise ModelError(f"k={k} exceeds the vocabulary size {self._num_tags}")
        return combinations(range(self._num_tags), k)

    def num_candidate_tag_sets(self, k: int) -> int:
        """``C(|Omega|, k)``."""
        from math import comb

        return comb(self._num_tags, k)

    # --------------------------------------------------- Lemma 8 upper bounds
    def jensen_ratios(self) -> np.ndarray:
        """Per-(tag, topic) ratios ``p(w|z) / prod_z' p(w|z')^{p(z')}``.

        These are the building blocks of the second (dense) term of the
        Lemma 8 upper bound: Jensen's inequality applied to the posterior
        normalizer (Appendix B.8) gives, for any completion ``W'`` of a partial
        tag set,

        ``p(z|W') <= p(z) * prod_{w in W'} ratio(w, z)``

        with the topic prior appearing exactly once as a prefactor.  Tags with
        a zero likelihood under some positive-prior topic have a zero
        geometric-mean denominator and get an infinite ratio, which the bound
        code later clamps at the trivial bound 1.
        """
        if self._jensen_ratios is not None:
            return self._jensen_ratios
        ratios = np.zeros_like(self._matrix)
        with np.errstate(divide="ignore"):
            log_matrix = np.where(self._matrix > 0.0, np.log(self._matrix), -np.inf)
        for tag in range(self._num_tags):
            # Geometric-mean denominator prod_z' p(w|z')^{p(z')}.
            logs = log_matrix[tag]
            if np.any(np.isneginf(logs[self._prior > 0.0])):
                denominator = 0.0
            else:
                denominator = float(np.exp(np.dot(self._prior, logs)))
            for topic in range(self._num_topics):
                numerator = self._matrix[tag, topic]
                if numerator <= 0.0:
                    ratios[tag, topic] = 0.0
                elif denominator <= 0.0:
                    ratios[tag, topic] = np.inf
                else:
                    ratios[tag, topic] = numerator / denominator
        self._jensen_ratios = ratios
        return ratios

    def topic_posterior_upper_bound(self, partial_tags: Iterable, k: int) -> np.ndarray:
        """Per-topic upper bound on ``p(z|W')`` over completions ``W' ⊇ W, |W'| = k``.

        For each topic in the support of the partial set the bound starts from
        the topic prior ``p(z)`` and multiplies the Jensen ratios of the
        already-selected tags with the largest ratios among the remaining tags
        (choosing exactly ``k - |W|`` of them, largest first), then clamps at
        1 since a posterior can never exceed 1.  Topics outside the support get
        a bound of 0 -- adding tags can only shrink the support.

        All topics multiply together, one factor at a time, so each topic's
        product keeps the same order of operations.  A topic whose product
        turns non-finite stops multiplying (so ``inf * 0`` never yields
        ``nan``) and is clamped to the trivial bound 1.  The result is a pure
        function of the immutable model, memoized read-only per
        ``(tag_ids, k)`` beside the row plan (see :meth:`_row_plan`).
        """
        return self._row_plan(self.resolve_tags(partial_tags), k)[1]

    def _row_plan(self, tag_ids: Tuple[int, ...], k: int) -> _RowPlan:
        """The topic support of a partial set's ``p+`` row, memoized per ``(tag_ids, k)``.

        ``tag_ids`` is a sorted id tuple.  The plan is ``(columns, bound,
        topic)``: the support topics (the sparse term's columns), the
        read-only :meth:`topic_posterior_upper_bound` vector (the dense
        term's weights) and the one topic whose bound is positive, or ``-1``
        when none or several are.  At most one plan per partial set and
        ``k`` exists, and the insert has the benign ``setdefault`` race of
        :meth:`posterior_of_ids`.
        """
        key = (tag_ids, k)
        plan = self._plan_cache.get(key)
        if plan is not None:
            return plan
        if len(tag_ids) > k:
            raise ModelError(f"partial tag set of size {len(tag_ids)} exceeds k={k}")
        remaining = k - len(tag_ids)
        support = self.posterior_of_ids(tag_ids) > 0.0 if tag_ids else self._prior > 0.0
        ratios = self.jensen_ratios()[:, support]
        bound = self._prior[support]
        with np.errstate(over="ignore", invalid="ignore"):
            for factor in ratios[list(tag_ids)]:
                np.multiply(bound, factor, out=bound, where=np.isfinite(bound))
            if remaining > 0:
                others = np.delete(ratios, tag_ids, axis=0)
                if len(others) < remaining:
                    # Cannot complete the tag set at all; no completion exists.
                    bound = np.where(np.isfinite(bound), 0.0, np.inf)
                else:
                    # The largest `remaining` ratios of the other tags, largest first.
                    for factor in np.sort(others, axis=0)[::-1][:remaining]:
                        np.multiply(bound, factor, out=bound, where=np.isfinite(bound))
        bounds = np.zeros(self._num_topics)
        bounds[support] = np.where(np.isfinite(bound), np.minimum(1.0, bound), 1.0)
        bounds.flags.writeable = False
        positive = np.flatnonzero(bounds)
        topic = int(positive[0]) if positive.size == 1 else -1
        columns = tuple(np.flatnonzero(support).tolist())
        return self._plan_cache.setdefault(key, (columns, bounds, topic))

    def _row_key(self, tag_ids: Tuple[int, ...], k: int) -> RowKey:
        """The support and Lemma 8 bound bytes of the ``p+`` row plan of ``tag_ids``.

        The row is built from the support and the bound alone (the plan's
        topic follows from the bound), so partial sets with one key have
        bitwise-equal rows on a given graph and the best-effort explorer
        builds and scores one row per key.
        """
        support, bounds, _ = self._row_plan(tag_ids, k)
        return support, bounds.tobytes()

    def upper_bound_edge_probabilities(
        self, graph: TopicSocialGraph, partial_tags: Iterable, k: int
    ) -> np.ndarray:
        """Lemma 8: ``p+(e|W) >= p(e|W')`` for every completion ``W'`` of ``W``.

        The bound is the minimum of two valid bounds:

        * the *sparse* term ``max_{z in supp(W)} p(e|z)``;
        * the *dense* term ``sum_{z in supp(W)} p(e|z) * bound_z`` where
          ``bound_z`` comes from :meth:`topic_posterior_upper_bound`.

        The one-row case of :meth:`upper_bound_edge_probabilities_many`.
        """
        partial = self.resolve_tags(partial_tags)
        return self.upper_bound_edge_probabilities_many(graph, [partial], k)[0]

    def upper_bound_edge_probabilities_many(
        self, graph: TopicSocialGraph, partials: Sequence[Tuple[int, ...]], k: int
    ) -> np.ndarray:
        """The Lemma 8 ``p+`` rows of several partial sets, as one ``(R, |E|)`` matrix.

        Each partial set is a sorted tag-id tuple (:meth:`resolve_tags` form).
        Every row is written in place from the set's memoized topic support
        and equals the one-row bound bit for bit:

        * no supported topic: the row stays zero;
        * the sparse term is a running ``np.maximum`` over the support's
          contiguous :attr:`~repro.graph.digraph.TopicSocialGraph.probability_columns`
          (a max is exact in any order);
        * a dense term with one positive weight is that column times the
          weight, which is what the dgemv returns (see
          :meth:`~repro.graph.digraph.TopicSocialGraph.edge_probabilities_under_many`);
          any other dense term is one ``np.matmul(matrix, bounds, out=row)``
          dgemv per row, never one GEMM over all rows.
        """
        if graph.num_topics != self._num_topics:
            raise ModelError(
                f"graph has {graph.num_topics} topics but the model has {self._num_topics}"
            )
        graph = graph.snapshot()  # the matrix and its columns of one version
        matrix = graph.probability_matrix
        rows = np.zeros((len(partials), matrix.shape[0]))
        if matrix.shape[0] == 0:
            return rows
        columns = graph.probability_columns
        sparse_term = np.empty(matrix.shape[0])
        for row, tag_ids in zip(rows, partials):
            support, bounds, topic = self._row_plan(tag_ids, k)
            if not support:
                continue
            if topic >= 0:
                np.multiply(columns[topic], bounds[topic], out=row)
            else:
                np.matmul(matrix, bounds, out=row)
            if len(support) == 1:
                sparse = columns[support[0]]
            else:
                sparse = np.maximum(columns[support[0]], columns[support[1]], out=sparse_term)
                for column in support[2:]:
                    np.maximum(sparse, columns[column], out=sparse)
            np.minimum(sparse, row, out=row)
        return rows

    def content_hash(self) -> str:
        """Content hash of the model (matrix, prior and vocabulary).

        Part of the persistent index-store cache key: an index answers queries
        through ``p(e|W)`` vectors computed from this model, so a different
        matrix/prior/vocabulary must never be matched against a stored index.
        The model is immutable, so the digest is computed once and cached
        (one store lookup hashes the key several times).
        """
        if self._content_hash is None:
            digest = hashlib.sha256()
            digest.update(np.ascontiguousarray(self._matrix, dtype=float).tobytes())
            digest.update(np.ascontiguousarray(self._prior, dtype=float).tobytes())
            digest.update("\x00".join(self._tags).encode())
            self._content_hash = digest.hexdigest()
        return self._content_hash

    # ----------------------------------------------------------------- metrics
    def tag_topic_density(self) -> float:
        """Fraction of non-zero ``p(w|z)`` entries (footnote 7 of the paper)."""
        return float(np.count_nonzero(self._matrix)) / float(self._matrix.size)

    def restrict_tags(self, tag_ids: Sequence[int]) -> "TagTopicModel":
        """A new model over a subset of the vocabulary (used by scalability sweeps)."""
        tag_ids = list(tag_ids)
        matrix = self._matrix[tag_ids, :]
        tags = [self._tags[t] for t in tag_ids]
        return TagTopicModel(matrix, self._prior, tags)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TagTopicModel(|Omega|={self._num_tags}, |Z|={self._num_topics})"
