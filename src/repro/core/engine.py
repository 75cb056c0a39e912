"""``PitexEngine``: the public facade of the library.

The engine owns a graph, a tag-topic model and the accuracy parameters, builds
estimators / indexes on demand and answers PITEX queries with any of the
methods compared in the paper's experiments:

================  =============================================================
method            description
================  =============================================================
``mc``            enumeration + Monte-Carlo sampling (Sec. 4)
``rr``            enumeration + Reverse-Reachable sampling (Sec. 4)
``lazy``          enumeration + lazy propagation sampling (Sec. 5.1)
``lazy-batched``  lazy propagation on the multi-instance event-queue kernel
                  (always ``kernel="batched"``, regardless of engine kernel)
``tim``           enumeration + the tree-model baseline (Sec. 7.1)
``indexest``      RR-Graph index matching, Algorithm 3 (Sec. 6.1)
``indexest+``     RR-Graph index with edge-cut pruning (Sec. 6.2)
``delaymat``      delayed materialization, Algorithm 4 (Sec. 6.3)
================  =============================================================

All methods run under either exhaustive enumeration or best-effort exploration
(the paper's experiments run every method on top of best-effort; see Sec. 7.3).

Engine lifecycle
----------------
There is one query path.  :meth:`PitexEngine.query` and
:meth:`PitexEngine.estimate_influence` answer on a fresh, query-local
estimator whose RNG root is derived statelessly from ``(engine seed, query
fingerprint)`` (:meth:`PitexEngine.query_seed`), so an answer is a pure
function of the engine's seed, its graph/model/index state and the query --
never of call order or thread interleaving.  Queries share only structures
that are built once and then only read: the offline indexes (built lazily,
once, under the engine's build lock) and the graph/model caches.
:meth:`PitexEngine.freeze` builds all of them eagerly for the listed methods,
optionally adds read-only per-user tables, and engages a
:class:`~repro.utils.freeze.FrozenGuard` that raises on any mutation of the
graph or the indexes; ``thaw`` disengages it.
"""

from __future__ import annotations

import hashlib
import threading
import zlib
from typing import Iterable, Optional, Tuple

from repro.core.best_effort import BestEffortExplorer
from repro.core.enumeration import EnumerationExplorer
from repro.core.query import PitexQuery, PitexResult
from repro.core.tim import TreeModelEstimator
from repro.exceptions import EngineFrozenError, InvalidParameterError
from repro.graph.digraph import TopicSocialGraph
from repro.index.delayed import DelayedIndexEstimator, DelayedMaterializationIndex
from repro.index.pruning import PrunedIndexEstimator
from repro.index.rr_index import IndexEstimator, RRGraphIndex
from repro.index.tables import FrozenUserTables, build_delayed_tables, build_pruning_tables
from repro.obs.telemetry import counter
from repro.sampling.base import InfluenceEstimate, InfluenceEstimator, SampleBudget
from repro.sampling.lazy import LazyPropagationEstimator
from repro.sampling.monte_carlo import MonteCarloEstimator
from repro.sampling.reverse_reachable import ReverseReachableEstimator
from repro.topics.model import TagTopicModel
from repro.utils.freeze import FrozenGuard, attach_freeze_guard, detach_freeze_guard
from repro.utils.rng import RandomSource, SeedLike, spawn_rng

METHODS = ("mc", "rr", "lazy", "lazy-batched", "tim", "indexest", "indexest+", "delaymat")
EXPLORATIONS = ("enumeration", "best-effort")
KERNELS = ("batched", "csr", "dict")


def resolved_kernel(method: str, kernel: str) -> str:
    """The sampling kernel ``method`` actually runs on under engine ``kernel``.

    The single source of truth for the method-to-kernel mapping, shared by
    :meth:`PitexEngine.estimator` and the CLI's ``--json`` reporting:
    ``lazy-batched`` always uses the batched event queue, while MC/RR only
    know per-instance kernels and fall back to their (already
    frontier-batched) CSR walkers under an engine-wide ``"batched"`` kernel.
    """
    if method == "lazy-batched":
        return "batched"
    if method in ("mc", "rr") and kernel == "batched":
        return "csr"
    return kernel


class PitexEngine:
    """End-to-end PITEX query answering.

    Parameters
    ----------
    graph:
        The topic-aware social graph.
    model:
        The tag-topic model.
    epsilon, delta:
        Accuracy parameters (defaults match the paper: 0.7 and 1000).
    max_samples:
        Practical cap on per-tag-set online samples and on offline RR-Graphs.
    index_samples:
        Number of RR-Graphs materialized by the offline indexes; defaults to
        the capped Eqn. 7 value.
    default_k:
        Default number of tags per query.
    seed:
        Seed controlling every random choice of the engine.
    kernel:
        ``"csr"`` (default) runs the sampling estimators on the vectorized
        CSR kernels; ``"batched"`` additionally runs lazy propagation on the
        multi-instance event queue (MC/RR fall back to their CSR kernels,
        which are already frontier-batched); ``"dict"`` selects the per-edge
        reference walkers, kept for equivalence testing and for the
        kernel-vs-kernel benchmarks.  The ``lazy-batched`` *method* always
        uses the batched kernel so it can be compared against ``lazy`` on the
        same engine.
    rr_index, delayed_index:
        Optional *prebuilt* offline indexes (typically loaded from a
        :class:`repro.serve.store.IndexStore`).  A supplied index must have
        been built for this exact ``graph`` instance and still be fresh; the
        engine then skips the corresponding offline build entirely, which is
        the serving layer's warm-start path.
    """

    def __init__(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        epsilon: float = 0.7,
        delta: float = 1000.0,
        max_samples: Optional[int] = 2000,
        index_samples: Optional[int] = None,
        default_k: int = 3,
        seed: SeedLike = None,
        kernel: str = "csr",
        rr_index: Optional[RRGraphIndex] = None,
        delayed_index: Optional[DelayedMaterializationIndex] = None,
    ) -> None:
        if graph.num_topics != model.num_topics:
            raise InvalidParameterError(
                f"graph has {graph.num_topics} topics but the model has {model.num_topics}"
            )
        if kernel not in KERNELS:
            raise InvalidParameterError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
        self.kernel = kernel
        self.graph = graph
        self.model = model
        self.budget = SampleBudget(
            epsilon=epsilon,
            delta=delta,
            k=default_k,
            num_tags=model.num_tags,
            max_samples=max_samples,
        )
        self._seed = spawn_rng(seed)
        # One root draw, taken eagerly: every engine-owned stochastic
        # component (estimators, offline indexes) derives its stream from this
        # root and a stable label, so seeds do not depend on the *order* in
        # which components are first used (and never on PYTHONHASHSEED).
        self._stream_root = int(self._seed.generator.integers(0, 2**63 - 1))
        if index_samples is None:
            index_samples = self.budget.offline_samples(graph.num_vertices)
        self.index_samples = int(index_samples)
        self._rr_index: Optional[RRGraphIndex] = None
        self._delayed_index: Optional[DelayedMaterializationIndex] = None
        # Serializes the lazy index builds, so concurrent first queries build
        # each index once.
        self._build_lock = threading.Lock()
        self._frozen = False
        self._frozen_methods: Tuple[str, ...] = ()
        self._frozen_ks: Tuple[int, ...] = ()
        self._frozen_tables = False
        self._user_tables: Optional[FrozenUserTables] = None
        self._guard = FrozenGuard(owner=f"PitexEngine@{id(self):x}")
        self._guarded_objects: list = []
        if rr_index is not None:
            self.attach_rr_index(rr_index)
        if delayed_index is not None:
            self.attach_delayed_index(delayed_index)

    def _stream(self, label: str) -> RandomSource:
        """A reproducible child stream for ``label`` (order-independent)."""
        digest = zlib.crc32(label.encode("utf-8"))
        return RandomSource((self._stream_root ^ (digest * 0x9E3779B97F4A7C15)) & (2**63 - 1))

    # ----------------------------------------------------------------- indexes
    @property
    def rr_index(self) -> RRGraphIndex:
        """The materialized RR-Graph index, built once on first access."""
        with self._build_lock:
            if self._rr_index is None or not self._rr_index.is_built:
                self._guard.check("build the RR-Graph index after freeze()")
                self._rr_index = RRGraphIndex(
                    self.graph, self.index_samples, seed=self._stream("rr-index")
                ).build()
            return self._rr_index

    @property
    def delayed_index(self) -> DelayedMaterializationIndex:
        """The delayed-materialization index, built once on first access."""
        with self._build_lock:
            if self._delayed_index is None or not self._delayed_index.is_built:
                self._guard.check("build the delayed-materialization index after freeze()")
                self._delayed_index = DelayedMaterializationIndex(
                    self.graph, self.index_samples, seed=self._stream("delayed-index")
                ).build()
            return self._delayed_index

    def build_indexes(self) -> None:
        """Eagerly build both offline indexes (otherwise built lazily)."""
        _ = self.rr_index
        _ = self.delayed_index

    def attach_rr_index(self, index: RRGraphIndex) -> None:
        """Adopt a prebuilt RR-Graph index (the load-from-store warm path)."""
        self._guard.check("attach an RR-Graph index after freeze()")
        self._check_prebuilt(index, "rr_index")
        self._rr_index = index

    def attach_delayed_index(self, index: DelayedMaterializationIndex) -> None:
        """Adopt a prebuilt delayed-materialization index."""
        self._guard.check("attach a delayed-materialization index after freeze()")
        self._check_prebuilt(index, "delayed_index")
        self._delayed_index = index

    def _check_prebuilt(self, index, name: str) -> None:
        if index.graph is not self.graph:
            raise InvalidParameterError(
                f"prebuilt {name} was built for a different graph instance"
            )
        if not index.is_built:
            raise InvalidParameterError(
                f"prebuilt {name} is not built (or is stale for graph version "
                f"{self.graph.version}); load it against the current graph state"
            )
        if index.num_samples != self.index_samples:
            raise InvalidParameterError(
                f"prebuilt {name} holds {index.num_samples} samples but the engine "
                f"was configured with index_samples={self.index_samples}; mixing "
                "accuracies would silently change estimates (pass index_samples="
                f"{index.num_samples} to adopt the index's theta)"
            )

    # -------------------------------------------------------------- estimators
    def estimator(
        self,
        method: str,
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        k: Optional[int] = None,
        seed: Optional[RandomSource] = None,
    ) -> InfluenceEstimator:
        """A fresh estimator for ``method`` with the given accuracy.

        The one estimator constructor: :meth:`query` and
        :meth:`estimate_influence` call it with a query-derived ``seed``.
        Without ``seed`` the estimator draws from the engine's stream for
        ``(method, epsilon, delta, k)``, which depends on neither process nor
        call order.  Construction is cheap -- estimators hold references to
        the graph, model and indexes, never copies -- and nothing is cached,
        so two calls return two independent instances.  A frozen engine
        refuses methods :meth:`freeze` did not warm.
        """
        method = method.lower()
        if method not in METHODS:
            raise InvalidParameterError(f"unknown method {method!r}; choose from {METHODS}")
        if self._frozen and method not in self._frozen_methods:
            # A routing error by the caller, not a shared-state mutation, so
            # it raises directly instead of tripping the guard.
            raise EngineFrozenError(
                f"frozen engine cannot serve unwarmed method {method!r} "
                f"(warmed: {self._frozen_methods}); include it in "
                "freeze(methods=...) or thaw() first"
            )
        budget = self.budget.with_overrides(
            epsilon=epsilon if epsilon is not None else self.budget.epsilon,
            delta=delta if delta is not None else self.budget.delta,
            k=k if k is not None else self.budget.k,
        )
        if seed is None:
            seed = self._stream(repr((method, budget.epsilon, budget.delta, budget.k)))
        kernel = resolved_kernel(method, self.kernel)
        if method == "mc":
            return MonteCarloEstimator(self.graph, self.model, budget, seed, kernel=kernel)
        if method == "rr":
            return ReverseReachableEstimator(self.graph, self.model, budget, seed, kernel=kernel)
        if method in ("lazy", "lazy-batched"):
            return LazyPropagationEstimator(self.graph, self.model, budget, seed, kernel=kernel)
        if method == "tim":
            return TreeModelEstimator(self.graph, self.model, budget)
        if method == "indexest":
            return IndexEstimator(self.graph, self.model, self.rr_index, budget)
        tables = self._user_tables
        if method == "indexest+":
            return PrunedIndexEstimator(
                self.graph,
                self.model,
                self.rr_index,
                budget,
                shared_structures=tables.pruning if tables is not None else None,
            )
        # delaymat
        return DelayedIndexEstimator(
            self.graph,
            self.model,
            self.delayed_index,
            budget,
            seed=seed,
            shared_graphs=tables.delayed_graphs if tables is not None else None,
            shared_filters=tables.delayed_filters if tables is not None else None,
        )

    # ---------------------------------------------------------------- lifecycle
    @property
    def is_frozen(self) -> bool:
        """Whether :meth:`freeze` flipped this engine into read-only serving."""
        return self._frozen

    @property
    def freeze_guard(self) -> FrozenGuard:
        """The engine's mutation tripwire (``violations`` lists every trip)."""
        return self._guard

    @property
    def frozen_methods(self) -> Tuple[str, ...]:
        """The methods warmed by :meth:`freeze` (empty while unfrozen)."""
        return self._frozen_methods

    @property
    def frozen_user_tables(self) -> Optional[FrozenUserTables]:
        """The freeze-time per-user tables (``None`` while unfrozen or disabled)."""
        return self._user_tables

    def freeze(
        self,
        methods: Optional[Iterable[str]] = None,
        ks: Optional[Iterable[int]] = None,
        precompute_tables: bool = True,
    ) -> "PitexEngine":
        """Warm every configured method eagerly, then engage the guard.

        Warming builds the offline indexes the listed ``methods`` need and
        materializes the lazily cached graph/model structures (CSR view,
        probability matrix, fingerprint, Jensen ratios), so no first-access
        build happens on the serving path.  Queries answer the same way
        before and after: every query runs on a query-local estimator seeded
        by :meth:`query_seed`.

        With ``precompute_tables`` (the default) freezing also builds the
        read-only per-user tables of :mod:`repro.index.tables` for the warmed
        index methods, so even the first query for a user skips the per-query
        re-derivation of its cut structures (``indexest+``, bitwise-neutral)
        and recovered graphs (``delaymat``, drawn once from per-user
        label-derived streams shared by every same-seed replica; these change
        ``delaymat`` answers).

        After ``freeze()`` the :class:`~repro.utils.freeze.FrozenGuard`
        raises :class:`~repro.exceptions.EngineFrozenError` on any mutation
        of the graph or the indexes, and :meth:`estimator` (so also
        :meth:`query`) refuses methods that were not warmed.

        ``methods`` defaults to every method; ``ks`` (default: the engine's
        ``default_k``) names the ``k`` values the deployment serves.  No
        structure depends on ``k``, so queries may still override it.
        Re-freezing with a configuration the first freeze covers is a no-op
        (returns ``self``); asking a frozen engine for *additional* methods
        or ``k`` values, or for a different ``precompute_tables``, raises --
        the caller must ``thaw()`` first.

        The contract extends across *processes*: the stream root behind
        :meth:`query_seed` is drawn eagerly at construction, so a replica
        built in another process from the same integer seed and the same
        graph/model/index bytes answers every query bitwise identically
        (what :mod:`repro.serve.sharded` relies on; see
        ``docs/architecture.md``).
        """
        if methods is None:
            method_list = list(METHODS)
        else:
            method_list = [method.lower() for method in methods]
            for method in method_list:
                if method not in METHODS:
                    raise InvalidParameterError(
                        f"unknown method {method!r}; choose from {METHODS}"
                    )
        k_list = sorted({int(k) for k in ks}) if ks is not None else [self.budget.k]
        for k in k_list:
            if k <= 0:
                raise InvalidParameterError(f"k must be positive, got {k}")
        precompute_tables = bool(precompute_tables)
        if self._frozen:
            uncovered = [m for m in method_list if m not in self._frozen_methods]
            uncovered += [k for k in k_list if k not in self._frozen_ks]
            if uncovered:
                raise EngineFrozenError(
                    f"engine is already frozen without {uncovered!r} warmed; "
                    "thaw() before freezing a different configuration"
                )
            if precompute_tables != self._frozen_tables:
                raise EngineFrozenError(
                    f"engine is already frozen with precompute_tables={self._frozen_tables}; "
                    "thaw() before freezing a different configuration"
                )
            return self
        # Warm the shared lazily-built read-only structures.
        _ = self.graph.csr
        _ = self.graph.probability_matrix
        max_probabilities = self.graph.max_edge_probabilities()
        self.graph.fingerprint()
        self.model.jensen_ratios()
        if "indexest" in method_list or "indexest+" in method_list:
            _ = self.rr_index
        if "delaymat" in method_list:
            _ = self.delayed_index
        if precompute_tables:
            pruning_tables = None
            delayed_graphs = delayed_filters = None
            if "indexest+" in method_list:
                pruning_tables = build_pruning_tables(self.rr_index, max_probabilities)
            if "delaymat" in method_list:
                delayed_graphs, delayed_filters = build_delayed_tables(
                    self.delayed_index,
                    max_probabilities,
                    lambda user: self._stream(f"delaymat-table|{user}"),
                )
            if pruning_tables is not None or delayed_graphs is not None:
                self._user_tables = FrozenUserTables(
                    pruning=pruning_tables,
                    delayed_graphs=delayed_graphs,
                    delayed_filters=delayed_filters,
                )
        self._frozen_methods = tuple(dict.fromkeys(method_list))
        self._frozen_ks = tuple(k_list)
        self._frozen_tables = precompute_tables
        self._frozen = True
        self._guarded_objects = [self.graph]
        for index in (self._rr_index, self._delayed_index):
            if index is not None:
                self._guarded_objects.append(index)
        for obj in self._guarded_objects:
            attach_freeze_guard(obj, self._guard)
        self._guard.engage()
        counter("engine.freeze")
        return self

    def thaw(self) -> "PitexEngine":
        """Return a frozen engine to the mutable phase.

        Disengages the guard and detaches it from every structure it froze
        (shared objects -- e.g. a graph served by several engines -- keep any
        *other* engine's guard) and drops the per-user tables.  Past guard
        violations are preserved for inspection.
        """
        self._guard.disengage()
        for obj in self._guarded_objects:
            detach_freeze_guard(obj, self._guard)
        self._guarded_objects = []
        self._frozen = False
        self._frozen_methods = ()
        self._frozen_ks = ()
        self._frozen_tables = False
        self._user_tables = None
        counter("engine.thaw")
        return self

    def query_fingerprint(
        self,
        user: int,
        method: str,
        k: int,
        epsilon: float,
        delta: float,
        exploration: str = "best-effort",
        extra: str = "",
    ) -> str:
        """A stable hex digest identifying one query's full configuration.

        Pure function of its arguments -- no engine state is read beyond the
        immutable configuration -- so equal queries map to equal fingerprints
        in any process, thread or arrival order.
        """
        payload = "|".join(
            (
                str(int(user)),
                method.lower(),
                exploration,
                str(int(k)),
                repr(float(epsilon)),
                repr(float(delta)),
                extra,
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def query_seed(
        self,
        user: int,
        method: str,
        k: int,
        epsilon: float,
        delta: float,
        exploration: str = "best-effort",
        extra: str = "",
    ) -> int:
        """The stateless per-query RNG root: ``(engine seed, fingerprint)``.

        Mixes the engine's eagerly drawn stream root with the query
        fingerprint: two engines with the same seed derive the same root for
        the same query no matter how many other queries ran before or
        concurrently -- the property the concurrency equivalence harness pins
        down.
        """
        fingerprint = self.query_fingerprint(
            user, method, k, epsilon, delta, exploration=exploration, extra=extra
        )
        return (self._stream_root ^ int(fingerprint[:15], 16)) & (2**63 - 1)

    # ------------------------------------------------------------------ query
    def query(
        self,
        user: int,
        k: Optional[int] = None,
        method: str = "indexest+",
        exploration: str = "best-effort",
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        candidate_tags: Optional[Iterable[int]] = None,
        keep_evaluations: bool = False,
    ) -> PitexResult:
        """Answer one PITEX query.

        Parameters
        ----------
        user:
            Target user (vertex id).
        k:
            Number of tags to select (default: engine's ``default_k``).
        method:
            One of :data:`METHODS`.
        exploration:
            ``"best-effort"`` (default, with Lemma 8 pruning) or
            ``"enumeration"`` (exhaustive).
        epsilon, delta:
            Per-query accuracy overrides.
        candidate_tags:
            Optional restriction of the tag vocabulary.
        keep_evaluations:
            Keep per-tag-set evaluations on the result.
        """
        if exploration not in EXPLORATIONS:
            raise InvalidParameterError(
                f"unknown exploration {exploration!r}; choose from {EXPLORATIONS}"
            )
        query = PitexQuery(
            user=user,
            k=k if k is not None else self.budget.k,
            epsilon=epsilon if epsilon is not None else self.budget.epsilon,
            delta=delta if delta is not None else self.budget.delta,
        )
        # A fresh estimator per query, seeded by the stateless (seed,
        # fingerprint) derivation: nothing shared is mutated, so concurrent
        # queries need no lock.
        seed = self.query_seed(
            user, method, query.k, query.epsilon, query.delta, exploration=exploration
        )
        estimator = self.estimator(
            method, query.epsilon, query.delta, query.k, seed=RandomSource(seed)
        )
        if exploration == "enumeration":
            explorer = EnumerationExplorer(self.model, estimator, keep_evaluations)
            if candidate_tags is not None:
                from itertools import combinations

                candidates = combinations(sorted(self.model.resolve_tags(candidate_tags)), query.k)
                result = explorer.explore(query, candidates)
            else:
                result = explorer.explore(query)
        else:
            explorer = BestEffortExplorer(
                self.model, estimator, keep_evaluations=keep_evaluations
            )
            result = explorer.explore(query, candidate_tags)
        self._record_query_telemetry(method, result)
        return result

    def _record_query_telemetry(self, method: str, result: PitexResult) -> None:
        """Count one answered query's work in the telemetry registry.

        Every ``query.*`` counter is a deterministic function of the seeded
        query (see :data:`repro.obs.telemetry.DETERMINISTIC_PREFIXES`): the
        per-method totals must come out exactly equal whichever serving
        backend -- threads or sharded processes -- executed the queries.
        """
        name = method.lower()
        counter("query.count")
        counter(f"query.{name}.count")
        counter(f"query.{name}.edges_visited", result.edges_visited)
        counter(f"query.{name}.samples", result.samples_drawn)

    def estimate_influence(
        self,
        user: int,
        tags: Iterable,
        method: str = "lazy",
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
    ) -> InfluenceEstimate:
        """Estimate ``E[I(user|tags)]`` for one explicit tag set."""
        tag_ids = self.model.resolve_tags(tags)
        epsilon = epsilon if epsilon is not None else self.budget.epsilon
        delta = delta if delta is not None else self.budget.delta
        seed = self.query_seed(
            user,
            method,
            self.budget.k,
            epsilon,
            delta,
            exploration="estimate",
            extra=repr(tag_ids),
        )
        estimator = self.estimator(method, epsilon, delta, seed=RandomSource(seed))
        return estimator.estimate(user, tag_ids)

    # ------------------------------------------------------------------ info
    def describe(self) -> str:
        """One-line description of the engine configuration."""
        return (
            f"PitexEngine(|V|={self.graph.num_vertices}, |E|={self.graph.num_edges}, "
            f"|Z|={self.graph.num_topics}, |Omega|={self.model.num_tags}, "
            f"eps={self.budget.epsilon}, delta={self.budget.delta}, "
            f"index_samples={self.index_samples}"
            f"{', frozen' if self._frozen else ''})"
        )
