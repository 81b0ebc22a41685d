"""The Engine: one entry point for every way this library answers queries.

``Engine`` puts raw algorithm objects
(``FaginA0().top_k(session, agg, k)``), string queries over federated
subsystems, and batch and paged execution behind one fluent surface
with pluggable strategies:

String/AST queries over federated subsystems (the Garlic scenario)::

    engine = Engine().register(relational).register(qbic)
    answer = engine.query('(Artist = "Beatles") AND (Color ~ "red")').top(5)

Raw ranked sources (the Section 5 formal model)::

    engine = Engine.over(independent_database(2, 10_000, seed=0))
    result = engine.query(MINIMUM).top(10)            # auto-selected A0'
    result = engine.query(MINIMUM).strategy("fagin").top(10)   # forced A0

Paging (Section 4's "continue where we left off")::

    cursor = engine.query(MINIMUM).cursor()
    page1, page2 = cursor.next_k(10), cursor.next_k(10)

Batches with one summed accounting ledger, serial or on a thread pool
(see also :class:`~repro.engine.async_engine.AsyncEngine` for the
awaitable facade)::

    batch = engine.run_many([MINIMUM, MEDIAN, ARITHMETIC_MEAN], k=10)
    batch = engine.run_many(queries, k=10, parallel=8)

Every query on every backing takes one pipeline: **plan → steer → run
→ record**. The backing supplies only its static plan (the catalog
planner behind the plan cache, the registry pick over a fresh session,
or the pick every shard will make) and its run step (the executor,
the algorithm over the session, or the shard merge); ε-steering, the
adaptive chooser, forced-strategy resolution and the ledgers are
shared.

One sharing rule holds on every backing: stores and ranking caches are
shared read-only, and every run mints its own session from them.
"""

from __future__ import annotations

import operator
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace as _dc_replace
from typing import Iterable, Sequence

from repro.algorithms.base import TopKAlgorithm, TopKResult
from repro.core.aggregation import AggregationFunction
from repro.core.certify import (
    EXACT_GUARANTEE,
    Guarantee,
    QualityContract,
)
from repro.core.query import Query
from repro.engine.adaptive import (
    AdaptivePlanner,
    QueryShape,
    shape_of_aggregation,
    shape_of_query,
)
from repro.engine.batch import BatchResult, stats_of
from repro.engine.builder import QueryBuilder
from repro.engine.context import ExecutionContext
from repro.engine.cursor import ResultCursor, validate_k
from repro.engine.registry import StrategyChoice, select_strategy
from repro.exceptions import (
    EngineConfigurationError,
    InsufficientObjectsError,
    PlanningError,
)
from repro.middleware.catalog import Catalog
from repro.middleware.executor import Executor, QueryAnswer
from repro.middleware.parser import parse_query
from repro.middleware.plan import AlgorithmPlan, PhysicalPlan
from repro.middleware.planner import Planner
from repro.subsystems.base import Subsystem

__all__ = ["Engine"]


class Engine:
    """The unified execution engine.

    An engine is backed in exactly one of three ways:

    * **catalog-backed** — subsystems registered via :meth:`register`;
      queries are strings or ASTs, planned and executed through the
      middleware (the Garlic deployment scenario);
    * **source-backed** — built with :meth:`over` from a store with a
      ``session()`` method (a
      :class:`~repro.access.scoring_database.ScoringDatabase` or
      :class:`~repro.access.columnar.ColumnarScoringDatabase`);
      queries are aggregation functions over the store's ranked lists
      (the Section 5 formal model, and what the benchmarks drive);
    * **sharded** — built with :meth:`over_shards`; source-backed
      queries answered by worker processes over a partitioned store.

    Parameters
    ----------
    context:
        The shared :class:`~repro.engine.context.ExecutionContext`
        (semantics, cost model, planner options, default k).
    """

    def __init__(self, context: ExecutionContext | None = None) -> None:
        self.context = context or ExecutionContext()
        self._catalog = Catalog()
        self._backing: object | None = None
        #: A ShardedEngine when built with :meth:`over_shards` — the
        #: multi-process backing. Mutually exclusive with both the
        #: catalog and a plain source backing.
        self._sharded = None
        self._random_access = True
        #: Cumulative serving ledger: every completed query, batch
        #: member, and cursor page flows its AccessStats here, so the
        #: engine can answer "what has this process spent so far" —
        #: the aggregate a /metrics endpoint reports. Guarded by a
        #: lock because queries complete on arbitrary threads
        #: (run_many pools, the AsyncEngine executor).
        self._metrics_lock = threading.Lock()
        self._metrics_counters = {
            "queries": 0,
            "cursor_pages": 0,
            "sorted": 0,
            "random": 0,
            # Delivered-guarantee tally (the quality plane of
            # /metrics): how many completed queries certified which
            # contract kind.
            "exact": 0,
            "approximate": 0,
            "anytime": 0,
        }
        #: The adaptive planning layer (plan cache + measured-history
        #: chooser), or None when the context disables it. The chooser
        #: only steers one-shot auto-selected queries; cursors and
        #: run_many batches reuse cached plans but never consult it
        #: (see repro.engine.adaptive's determinism contract).
        self._adaptive: AdaptivePlanner | None = (
            AdaptivePlanner(self.context.adaptive_options)
            if self.context.adaptive
            else None
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def over(
        cls,
        backing: object,
        context: ExecutionContext | None = None,
        *,
        random_access: bool = True,
    ) -> "Engine":
        """An engine over raw ranked sources instead of subsystems.

        ``backing`` is a store: an object whose ``session()`` method
        mints a fresh :class:`~repro.access.session.MiddlewareSession`
        (a ``ScoringDatabase`` or ``ColumnarScoringDatabase``). The
        store is shared read-only and every run mints its own session,
        so one engine serves any number of threads, cursors and batch
        members at once. ``random_access=False`` restricts strategy
        selection to sorted-only algorithms (footnote 5's missing
        capability).
        """
        if not callable(getattr(backing, "session", None)):
            raise EngineConfigurationError(
                f"cannot back an engine with {type(backing).__name__}; "
                "expected an object with a session() method, such as a "
                "ScoringDatabase or ColumnarScoringDatabase"
            )
        engine = cls(context)
        engine._backing = backing
        engine._random_access = random_access
        return engine

    @classmethod
    def over_shards(
        cls,
        store,
        context: ExecutionContext | None = None,
        *,
        shards: int,
        processes: int | None = None,
        start_method: str | None = None,
    ) -> "Engine":
        """An engine over a columnar store split into worker processes.

        The store is partitioned into ``shards`` strided shared-memory
        shards served by ``processes`` persistent workers (``0`` =
        inline, no pool — the accounting reference); queries run per
        shard and merge by threshold exchange. At ε = 0 the answers
        equal :meth:`over`'s on the whole store; the summed ledgers are
        bit-identical across pool widths but not equal to the single
        store's — the shards together spend about 1.26x its sorted plus
        random accesses on ``shard-topk``'s mix. See
        :class:`~repro.sharding.engine.ShardedEngine` for the knobs
        and DESIGN.md "Sharded execution" for the protocol.

        The engine *owns* the pools and segments: call :meth:`close`
        (or use the engine as a context manager) when done.
        """
        from repro.sharding.engine import ShardedEngine

        engine = cls(context)
        engine._sharded = ShardedEngine(
            store,
            shards=shards,
            processes=processes,
            start_method=start_method,
        )
        return engine

    def register(self, subsystem: Subsystem) -> "Engine":
        """Register a data server (catalog-backed engines); chains."""
        if self._is_source_backed():
            raise EngineConfigurationError(
                "this engine is source- or shard-backed; subsystems can "
                "only be registered on an engine built with Engine()"
            )
        self._catalog.register(subsystem)
        return self

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def sharding(self):
        """The :class:`~repro.sharding.engine.ShardedEngine` backing
        this engine, or ``None`` — the serving layer's hook for
        worker-pool liveness (``/healthz``) and shard counters."""
        return self._sharded

    @property
    def semantics(self):
        return self.context.semantics

    def query(
        self, query: "str | Query | AggregationFunction | None" = None
    ) -> QueryBuilder:
        """Start a fluent query; see :class:`QueryBuilder`.

        ``query`` is a string or AST for catalog-backed engines, an
        aggregation function (or nothing, with ``.using(...)``) for
        source-backed ones.
        """
        return QueryBuilder(self, query)

    def plan(
        self, query: "str | Query", conjunction: str | None = None
    ) -> PhysicalPlan:
        """Plan a catalog query without executing it."""
        return self._plan_for(
            self._require_query(query), None, None, conjunction
        )[0]

    def explain(
        self, query: "str | Query", conjunction: str | None = None
    ) -> str:
        """The plan's human-readable strategy description.

        With the adaptive layer on, the report carries an extra block:
        the normalized shape, whether the plan came from the cache,
        the weighted-access estimate for the chosen strategy, and the
        measured per-strategy history backing the chooser's verdict.
        """
        return self._explain_spec(
            self._require_query(query), None, None, conjunction, None
        )

    def _explain_spec(
        self,
        query: "str | Query | None",
        aggregation: AggregationFunction | None,
        strategy: str | None,
        conjunction: str | None,
        adaptive: "bool | None",
        epsilon: "float | None" = None,
    ) -> str:
        plan, shape, hit = self._plan_for(
            query, aggregation, strategy, conjunction, adaptive, epsilon
        )
        lines = [plan.explain()]
        if shape is not None:
            assert self._adaptive is not None
            lines += self._adaptive.explain_lines(
                shape,
                plan,
                hit,
                self._num_objects(plan),
                self.context.default_k,
                self.context.cost_model,
            )
        contract = self._contract_for(epsilon)
        lines.append(f"guarantee: {self._describe_contract(contract)}")
        return "\n".join(lines)

    @staticmethod
    def _describe_contract(contract: QualityContract) -> str:
        if contract.epsilon == 0.0:
            return "exact (run to certified completion)"
        return (
            f"ε={contract.epsilon:g} approximate — stop once "
            f"(1+ε)·g_k ≥ τ; every returned grade is certified within "
            f"a (1+ε) factor of anything excluded"
        )

    def run_many(
        self,
        queries: Iterable[object],
        k: int | None = None,
        parallel: int | None = None,
    ) -> BatchResult:
        """Execute a batch of queries under one summed accounting ledger.

        Each entry is a query spec (string/AST for catalog-backed
        engines, aggregation function for source-backed ones) or a
        ``(spec, k)`` pair overriding the batch-wide ``k``.

        Every member takes the pipeline a one-shot ``top()`` takes —
        plan, ε-steering under the context's contract, run — but never
        consults or feeds the adaptive chooser. Each member runs in its
        own session, and the batch ledger is the sum of the per-member
        :class:`~repro.access.cost.AccessStats`. A catalog member
        reaches ``Subsystem.evaluate`` the way a one-shot query does,
        so an atom shared by several members is ranked once, by its
        subsystem's single-flight ranking cache, and every later issue
        is an O(1) mint off the cached ranking. Sharded batches advance
        every member's merge round by round across the worker pool.

        ``parallel=N`` executes the batch members on a thread pool of
        ``N`` workers, with accounting bit-identical to the serial
        batch (a member performs the same accesses either way). A
        sharded engine already parallelises across its worker
        processes and refuses ``parallel``.
        """
        if parallel is not None:
            if (
                isinstance(parallel, bool)
                or not isinstance(parallel, int)
                or parallel < 1
            ):
                raise EngineConfigurationError(
                    f"parallel must be a positive int or None, got {parallel!r}"
                )
            if self._sharded is not None:
                raise EngineConfigurationError(
                    "sharded engines already parallelise across their "
                    "worker-process pool; drop parallel= (pool width is "
                    "fixed at construction via processes=)"
                )
        default_k = validate_k(
            k if k is not None else self.context.default_k
        )
        specs = [self._normalise_spec(entry, default_k) for entry in queries]
        contract = self._contract_for(None)

        def plan_member(spec: object, k: int) -> PhysicalPlan:
            if isinstance(spec, AggregationFunction):
                query, aggregation = None, spec
            else:
                query, aggregation = spec, None
            plan, _shape, _hit = self._plan(
                query, aggregation, None, None, k, self._adaptive, contract
            )
            self._fit_k(plan, k)
            return plan

        details: dict[str, object] = {}
        if self._sharded is not None:
            plans = [plan_member(spec, k) for spec, k in specs]
            answers = self._sharded.run_many(
                [
                    (plan.aggregation, k, plan.algorithm.name)
                    for plan, (_, k) in zip(plans, specs)
                ],
                contract=contract,
            )
            details.update(
                sharded=True,
                shards=self._sharded.num_shards,
                processes=self._sharded.processes,
            )
        else:

            def run_one(spec_k: tuple[object, int]) -> object:
                spec, k = spec_k
                return self._run(plan_member(spec, k), k, contract)

            if parallel is None:
                answers = [run_one(spec_k) for spec_k in specs]
            else:
                with ThreadPoolExecutor(
                    max_workers=parallel, thread_name_prefix="repro-run-many"
                ) as pool:
                    answers = list(pool.map(run_one, specs))
                details["parallel"] = parallel
        details["queries"] = len(answers)
        batch = BatchResult(
            answers=tuple(answers),
            total_sorted=sum(stats_of(a).sorted_cost for a in answers),
            total_random=sum(stats_of(a).random_cost for a in answers),
            details=details,
        )
        self._record_batch(batch)
        return batch

    def metrics_snapshot(self) -> dict:
        """Aggregate serving metrics: ledger totals and cache counters.

        The cumulative counterpart of a single result's
        :class:`~repro.access.cost.AccessStats`: every completed query
        (one-shot, batch member, or cursor page) adds its accesses to
        a process-wide ledger, and every registered subsystem reports
        its :class:`~repro.subsystems.base.RankingCache` hit, miss and
        admission-rejected counters. Usable standalone (capacity tuning, dashboards) and
        consumed verbatim by the serving layer's ``/metrics`` plane.

        Returns a plain JSON-serialisable dict::

            {
              "backing": "source" | "catalog",
              "queries": <completed top-k runs + batch members>,
              "cursor_pages": <pages fetched through engine cursors>,
              "access": {"sorted": S, "random": R, "total": S + R},
              "ranking_caches": {<subsystem>: {"hits": ..., "misses": ...,
                                 "rejected": ..., "entries": ...,
                                 "capacity": ...}},
              "cache_totals": {"hits": H, "misses": M},
              "planner": {"enabled": ..., "plan_cache": {...},
                          "chooser": {...}},
            }

        Thread-safe: counters are read under the ledger lock, cache
        counters are single-int reads of the live caches (a snapshot
        taken mid-burst may be one access ahead on one subsystem —
        monotone, never inconsistent with itself).
        """
        with self._metrics_lock:
            counters = dict(self._metrics_counters)
        caches: dict[str, dict[str, object]] = {}
        total_hits = total_misses = 0
        if not self._is_source_backed():
            for subsystem in self._catalog.subsystems:
                # Peek rather than touch the lazy property: a
                # subsystem that never served a query should report
                # zeros, not have a cache minted by the report.
                cache = subsystem.__dict__.get("_ranking_cache")
                if cache is None:
                    caches[subsystem.name] = {
                        "hits": 0, "misses": 0, "rejected": 0, "entries": 0,
                        "capacity": subsystem.ranking_cache_capacity,
                    }
                    continue
                caches[subsystem.name] = {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "rejected": cache.rejected,
                    "entries": len(cache),
                    "capacity": cache.capacity,
                }
                total_hits += cache.hits
                total_misses += cache.misses
        if self._sharded is not None:
            backing = "sharded"
        elif self._is_source_backed():
            backing = "source"
        else:
            backing = "catalog"
        snapshot = {
            "backing": backing,
            "queries": counters["queries"],
            "cursor_pages": counters["cursor_pages"],
            "access": {
                "sorted": counters["sorted"],
                "random": counters["random"],
                "total": counters["sorted"] + counters["random"],
            },
            "ranking_caches": caches,
            "cache_totals": {"hits": total_hits, "misses": total_misses},
            # Delivered guarantees: what quality the completed queries
            # actually certified (an ε>0 request answered by an exact
            # run — A0, or an early exhaustion — counts as exact).
            "quality": {
                "exact": counters["exact"],
                "approximate": counters["approximate"],
                "anytime": counters["anytime"],
            },
            "planner": (
                self._adaptive.metrics()
                if self._adaptive is not None
                else {"enabled": False}
            ),
        }
        if self._sharded is not None:
            # Shards/processes/backend plus cumulative probe counters —
            # the shard plane of a /metrics report.
            snapshot["sharding"] = self._sharded.metrics()
        return snapshot

    def __repr__(self) -> str:
        if self._sharded is not None:
            return f"Engine(over={self._sharded!r})"
        if self._is_source_backed():
            return f"Engine(over={type(self._backing).__name__})"
        return f"Engine({self._catalog!r})"

    # ------------------------------------------------------------------
    # Spec handling
    # ------------------------------------------------------------------

    def _is_source_backed(self) -> bool:
        # Sharded engines answer the same aggregation-shaped queries a
        # source backing does; only the execution substrate differs.
        return self._backing is not None or self._sharded is not None

    def close(self) -> None:
        """Release owned execution resources (idempotent).

        Today that is the sharded backing's worker pools and
        shared-memory segments; engines without one close to a no-op.
        Usable as a context manager for scoped ownership.
        """
        if self._sharded is not None:
            self._sharded.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving ledger (metrics_snapshot's data plane)
    # ------------------------------------------------------------------

    def _record_query(
        self, stats, guarantee: "Guarantee | None" = None
    ) -> None:
        with self._metrics_lock:
            self._metrics_counters["queries"] += 1
            self._metrics_counters["sorted"] += stats.sorted_cost
            self._metrics_counters["random"] += stats.random_cost
            if guarantee is not None:
                self._metrics_counters[guarantee.kind] += 1

    def _record_page(self, page: TopKResult) -> None:
        with self._metrics_lock:
            self._metrics_counters["cursor_pages"] += 1
            self._metrics_counters["sorted"] += page.stats.sorted_cost
            self._metrics_counters["random"] += page.stats.random_cost

    def _record_batch(self, batch: BatchResult) -> None:
        kinds = {"exact": 0, "approximate": 0, "anytime": 0}
        for answer in batch:
            result = getattr(answer, "result", answer)
            guarantee = getattr(result, "guarantee", None)
            kinds[(guarantee or EXACT_GUARANTEE).kind] += 1
        with self._metrics_lock:
            self._metrics_counters["queries"] += len(batch)
            self._metrics_counters["sorted"] += batch.total_sorted
            self._metrics_counters["random"] += batch.total_random
            for kind, count in kinds.items():
                self._metrics_counters[kind] += count

    def _require_query(self, query: object) -> "str | Query":
        if not isinstance(query, (str, Query)):
            raise EngineConfigurationError(
                f"expected a query string or AST, got {type(query).__name__}"
            )
        return query

    def _normalise_spec(
        self, entry: object, default_k: int
    ) -> tuple[object, int]:
        # A pair's k is any integer validate_k accepts (numpy integers
        # included). bool is an int subclass, so without the explicit
        # exclusion a (spec, True) pair would silently run with k=1
        # instead of falling through as a malformed spec.
        if (
            isinstance(entry, tuple)
            and len(entry) == 2
            and not isinstance(entry[1], bool)
        ):
            try:
                k = operator.index(entry[1])
            except TypeError:
                return entry, default_k
            if k < 1:
                raise ValueError(
                    f"k must be at least 1, got {k} (spec {entry[0]!r})"
                )
            return entry[0], k
        return entry, default_k

    def _parse(self, query: "str | Query") -> Query:
        return parse_query(query) if isinstance(query, str) else query

    # ------------------------------------------------------------------
    # The pipeline: plan → steer → run → record
    # ------------------------------------------------------------------

    def _planner(self, conjunction: str | None) -> Planner:
        return Planner(
            self._catalog,
            self.context.semantics,
            self.context.planner_options(conjunction),
            cost_model=self.context.cost_model,
        )

    def _executor(self) -> Executor:
        return Executor(self._catalog, self.context.semantics)

    def _random_access_ok(self, atoms: Sequence) -> bool:
        """Random access is available to a plan over ``atoms``: the
        backing allows it and every atom's subsystem supports it."""
        return self._random_access and all(
            self._catalog.subsystem_for(a).supports_random_access
            for a in atoms
        )

    def _num_objects(self, plan: PhysicalPlan) -> int:
        session = getattr(plan, "session", None)
        if session is not None:
            return session.num_objects
        if self._sharded is not None:
            return self._sharded.num_objects
        return self._catalog.num_objects

    def _num_lists(self, plan: AlgorithmPlan) -> int:
        # A sharded plan has neither atoms nor a session to count lists.
        if self._sharded is not None:
            return self._sharded.num_lists
        return plan.num_lists

    def _fit_k(self, plan: PhysicalPlan, k: int) -> int:
        """The plan's population N, once ``k`` is known to fit in it.

        A0 "assumes that there are at least k objects" (Section 4), and
        so does every other plan: k > N fails here, before a strategy
        is chosen or run, the same way on every backing and plan kind.
        """
        num_objects = self._num_objects(plan)
        if k > num_objects:
            raise InsufficientObjectsError(k, num_objects)
        return num_objects

    def _adaptive_for(self, flag: "bool | None") -> AdaptivePlanner | None:
        """The adaptive layer a query should use, honoring the opt-out.

        ``flag`` is the builder's per-query setting: ``False`` opts
        out; ``None``/``True`` use the engine's layer (which is None
        when the context disabled adaptive planning entirely).
        """
        if flag is False:
            return None
        return self._adaptive

    def _contract_for(self, epsilon: "float | None") -> QualityContract:
        """The quality contract a query runs under.

        The builder's per-query ε (``None`` means "not set") overrides
        the context's deployment-wide default; ε=0 normalises to the
        exact contract, so the historical call paths are untouched.
        """
        eps = self.context.epsilon if epsilon is None else epsilon
        return QualityContract.approximate(eps)

    def _pick(
        self,
        aggregation: AggregationFunction,
        num_lists: int,
        strategy: "str | TopKAlgorithm | None",
        random_access: bool,
    ) -> StrategyChoice:
        """The registry's pick, a strategy forced by name, or an
        instance supplied by the caller."""
        if isinstance(strategy, TopKAlgorithm):
            # A pre-built algorithm (possibly tuned via constructor
            # args); it validates its own preconditions at run time.
            return StrategyChoice(
                strategy, "algorithm instance supplied by caller"
            )
        return select_strategy(
            aggregation,
            num_lists,
            random_access=random_access,
            cost_model=self.context.cost_model,
            require=strategy,
        )

    def _plan(
        self,
        query: "str | Query | None",
        aggregation: AggregationFunction | None,
        strategy: "str | TopKAlgorithm | None",
        conjunction: str | None,
        k: int,
        layer: AdaptivePlanner | None,
        contract: QualityContract,
    ) -> "tuple[PhysicalPlan, QueryShape | None, bool | None]":
        """The plan one query runs, short of the adaptive chooser.

        First the backing's static plan, with any forced strategy:

        * catalog: the planner, through the plan cache when adaptive;
        * source: the registry's pick over one fresh session (no plan
          cache: the shape keys the aggregation by name, and the pick
          is only a lookup);
        * sharded: the pick every shard will make for itself.

        Then ε-steering. Returns ``(plan, shape, cache_hit)``:
        ``shape`` is None when the adaptive layer is off for this call,
        and always when sharded; ``cache_hit`` is None when the plan
        cache was not consulted.
        """
        epsilon = contract.epsilon
        shape = hit = None
        if self._is_source_backed():
            if query is not None:
                raise EngineConfigurationError(
                    "source-backed engines take an aggregation function, "
                    f"not a {type(query).__name__}; register subsystems "
                    "on Engine() for string queries"
                )
            if aggregation is None:
                raise EngineConfigurationError(
                    "source-backed queries need an aggregation: pass it to "
                    "engine.query(...) or chain .using(...)"
                )
            if self._sharded is not None:
                if strategy is not None and not isinstance(strategy, str):
                    raise EngineConfigurationError(
                        "sharded engines force strategies by registry "
                        "name (the algorithm runs in worker processes); "
                        f"got {type(strategy).__name__}"
                    )
                # The call each worker would make per shard: no cost model.
                choice = select_strategy(
                    aggregation, self._sharded.num_lists, random_access=True
                )
                plan: PhysicalPlan = AlgorithmPlan(
                    query=None,
                    reason=f"{choice.reason} (selected by every shard)",
                    algorithm=choice.algorithm,
                    aggregation=aggregation,
                )
            else:
                session = self._backing.session()
                choice = self._pick(
                    aggregation, session.num_lists, None, self._random_access
                )
                plan = AlgorithmPlan(
                    query=None,
                    reason=choice.reason,
                    algorithm=choice.algorithm,
                    aggregation=aggregation,
                    session=session,
                )
                if layer is not None:
                    shape = shape_of_aggregation(
                        aggregation,
                        session.num_lists,
                        k,
                        self._random_access,
                        layer.source_fingerprint(self._backing),
                        epsilon=epsilon,
                    )
        else:
            if query is None:
                raise EngineConfigurationError(
                    "catalog-backed queries need a query string or AST "
                    "(pass it to engine.query(...))"
                )
            if aggregation is not None:
                raise EngineConfigurationError(
                    "catalog-backed queries compile their aggregation from "
                    "the query under the engine's semantics; .using() is "
                    "for source-backed engines"
                )
            parsed = self._parse(self._require_query(query))
            planner = self._planner(conjunction)
            if layer is None:
                plan = planner.plan(parsed)
            else:
                # The shape is normalized over the *rewritten* tree so
                # idempotence rewrites (``A AND A`` vs ``A``) cannot
                # alias distinct plans under one key.
                rewritten = planner.rewrite(parsed)
                shape = shape_of_query(
                    rewritten,
                    self._catalog,
                    k,
                    conjunction
                    if conjunction is not None
                    else self.context.conjunction,
                    self._random_access_ok(rewritten.atoms()),
                    layer.catalog_fingerprint(self._catalog),
                    epsilon=epsilon,
                )
                plan, hit = layer.plan_catalog(
                    rewritten,
                    shape,
                    self.context.semantics,
                    lambda: planner.plan_rewritten(rewritten),
                )
        if strategy is not None:
            if not isinstance(plan, AlgorithmPlan):
                raise PlanningError(
                    f"query plans to {type(plan).__name__}, which does "
                    "not take a pluggable algorithm; remove .strategy()"
                )
            assert plan.aggregation is not None
            choice = self._pick(
                plan.aggregation,
                self._num_lists(plan),
                strategy,
                self._random_access_ok(plan.atoms),
            )
            plan = _dc_replace(
                plan, algorithm=choice.algorithm, reason=choice.reason
            )
        # ε-steering. Under an approximate contract the auto pick may be
        # A0, whose match-count stop cannot exploit the relaxation (it
        # observes no grades); TA's threshold stop can, so steer to it
        # and paying ε buys fewer accesses — on a sharded backing, in
        # every shard's probe. Forced strategies and non-random-access
        # workloads (NRA, which also honours ε) are left alone.
        # Steering follows the plan cache, whose shapes are ε-aware, so
        # exact traffic never sees a steered plan.
        if (
            epsilon > 0.0
            and strategy is None
            and isinstance(plan, AlgorithmPlan)
            and plan.aggregation is not None
            and plan.aggregation.monotone
            and self._random_access_ok(plan.atoms)
        ):
            choice = self._pick(
                plan.aggregation, self._num_lists(plan), "threshold", True
            )
            plan = _dc_replace(
                plan,
                algorithm=choice.algorithm,
                reason=(
                    f"ε={epsilon:g} approximate contract: TA's "
                    "θ/(1+ε) stopping rule converts the slack into early "
                    "termination (A0's match-count stop cannot)"
                ),
            )
        return plan, shape, hit

    def _plan_for(
        self,
        query: "str | Query | None",
        aggregation: AggregationFunction | None,
        strategy: "str | TopKAlgorithm | None",
        conjunction: str | None,
        adaptive: "bool | None" = None,
        epsilon: "float | None" = None,
    ) -> "tuple[PhysicalPlan, QueryShape | None, bool | None]":
        """What ``explain()`` renders, at the default k (no execution)."""
        return self._plan(
            query, aggregation, strategy, conjunction,
            self.context.default_k, self._adaptive_for(adaptive),
            self._contract_for(epsilon),
        )

    def _run(self, plan: PhysicalPlan, k: int, contract: QualityContract):
        """The backing's run step: the shard merge (which forwards the
        planned algorithm by registry name to the workers), the
        algorithm over the plan's session, or the executor."""
        if self._sharded is not None:
            assert isinstance(plan, AlgorithmPlan)
            assert plan.algorithm is not None
            return self._sharded.top_k(
                plan.aggregation,
                k,
                strategy=plan.algorithm.name,
                contract=contract,
            )
        if self._backing is not None:
            assert isinstance(plan, AlgorithmPlan)
            assert plan.algorithm is not None and plan.aggregation is not None
            return plan.algorithm.top_k(
                plan.session, plan.aggregation, k, contract
            )
        return self._executor().execute(plan, k, contract=contract)

    # ------------------------------------------------------------------
    # Terminal operations (called by QueryBuilder)
    # ------------------------------------------------------------------

    def _execute(
        self,
        query: "str | Query | None",
        aggregation: AggregationFunction | None,
        strategy: "str | TopKAlgorithm | None",
        conjunction: str | None,
        k: int | None,
        adaptive: "bool | None" = None,
        epsilon: "float | None" = None,
    ):
        # Validate before any session is minted or plan executed, so
        # .top(0) / .top(True) fails fast with a clear message on every
        # backing.
        k = validate_k(k if k is not None else self.context.default_k)
        contract = self._contract_for(epsilon)
        layer = self._adaptive_for(adaptive)
        plan, shape, _hit = self._plan(
            query, aggregation, strategy, conjunction, k, layer, contract
        )
        num_objects = self._fit_k(plan, k)
        if shape is not None and strategy is None and contract.epsilon == 0.0:
            # The chooser's override slate is built from exact runs;
            # under an ε-contract the steering already picked the
            # algorithm that can spend the slack, so the chooser only
            # observes (the ε-keyed shape keeps its histories separate).
            assert layer is not None
            plan = layer.choose(
                shape, plan, num_objects, k, self.context.cost_model
            )
        answer = self._run(plan, k, contract)
        result = answer.result if isinstance(answer, QueryAnswer) else answer
        self._record_query(result.stats, result.guarantee)
        # Only runs the ledger can name feed it: auto-selected, or forced
        # by registry name. A caller-supplied instance may be tuned away
        # from the registry's defaults, so its run stays out.
        if (
            shape is not None
            and isinstance(plan, AlgorithmPlan)
            and plan.algorithm is not None
            and (strategy is None or isinstance(strategy, str))
        ):
            assert layer is not None
            layer.record(
                shape, plan.algorithm.name, result.stats,
                self.context.cost_model,
            )
        return answer

    def _open_cursor(
        self,
        query: "str | Query | None",
        aggregation: AggregationFunction | None,
        strategy: "str | TopKAlgorithm | None",
        conjunction: str | None,
        epsilon: "float | None" = None,
    ) -> ResultCursor:
        if strategy is not None:
            raise PlanningError(
                "cursors page with the incremental Fagin machinery "
                "(Section 4's \"continue where we left off\"); a forced "
                ".strategy() cannot apply — remove it or use .top()"
            )
        if self._sharded is not None:
            raise PlanningError(
                "sharded engines do not support cursors: incremental "
                "paging needs one live session, and a sharded query "
                "is many per-probe sessions merged after the fact; "
                "re-issue with a larger k, or page against "
                "Engine.over(store) on the unsharded store"
            )
        # Every page is exact (Proposition 4.1) whatever ε the caller
        # accepts, so the cursor is planned under the exact contract.
        plan, _shape, _hit = self._plan(
            query, aggregation, None, conjunction,
            self.context.default_k, self._adaptive, self._contract_for(0.0),
        )
        if not isinstance(plan, AlgorithmPlan):
            raise PlanningError(
                f"query plans to {type(plan).__name__}, which does "
                "not support cursors; re-issue with a larger k instead"
            )
        assert plan.aggregation is not None
        return ResultCursor(
            self._executor().session_for(plan),
            plan.aggregation,
            default_k=self.context.default_k,
            query=plan.query,
            cost_model=self.context.cost_model,
            on_page=self._record_page,
            epsilon=self._contract_for(epsilon).epsilon,
        )
