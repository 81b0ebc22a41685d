"""The fluent query builder: one sentence from question to answer.

    engine.query('(Color ~ "red") AND (Shape ~ "round")').top(10)
    engine.query().using(MINIMUM).strategy("fagin").top(5)
    engine.query(MEDIAN).cursor().next_k(20)

A builder is cheap and immutable-ish: each fluent call returns the
builder itself after recording the option; terminal calls (:meth:`top`,
:meth:`cursor`, :meth:`plan`, :meth:`explain`) hand the accumulated
specification to the engine. Nothing touches a subsystem until a
terminal call runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.aggregation import AggregationFunction
from repro.core.certify import validate_epsilon
from repro.core.query import Query

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.cursor import ResultCursor
    from repro.engine.engine import Engine
    from repro.middleware.plan import PhysicalPlan

__all__ = ["QueryBuilder"]


class QueryBuilder:
    """Accumulates one query's options, then executes through the engine.

    Obtained from :meth:`Engine.query`; not constructed directly.
    """

    def __init__(
        self,
        engine: "Engine",
        query: "str | Query | AggregationFunction | None" = None,
    ) -> None:
        self._engine = engine
        self._query: str | Query | None = None
        self._aggregation: AggregationFunction | None = None
        self._strategy: str | object | None = None
        self._conjunction: str | None = None
        self._adaptive: bool | None = None
        self._epsilon: float | None = None
        if isinstance(query, AggregationFunction):
            # engine.query(MINIMUM) reads naturally for source-backed
            # engines, where the aggregation *is* the whole query.
            self._aggregation = query
        else:
            self._query = query

    # ------------------------------------------------------------------
    # Fluent options
    # ------------------------------------------------------------------

    def using(self, aggregation: AggregationFunction) -> "QueryBuilder":
        """Aggregate with ``aggregation`` (the t of ``Ft(A1..Am)``).

        Required for source-backed engines, where there is no query
        tree to compile an aggregation from.
        """
        if not isinstance(aggregation, AggregationFunction):
            raise TypeError(
                f"using() expects an AggregationFunction, "
                f"got {type(aggregation).__name__}"
            )
        self._aggregation = aggregation
        return self

    def strategy(self, strategy: "str | object") -> "QueryBuilder":
        """Force a strategy instead of auto-selection.

        Accepts a registry name (``"fagin"``, ``"nra"``, ...) — the
        registry then verifies capability, so forcing a random-access
        strategy onto a stream-only workload raises instead of
        silently returning wrong answers — or an already-constructed
        :class:`~repro.algorithms.base.TopKAlgorithm` instance, for
        algorithms tuned through constructor arguments (e.g.
        ``UllmanAlgorithm(sorted_list=1)``); instances validate their
        own preconditions at run time.
        """
        self._strategy = strategy
        return self

    def conjunction(self, mode: str) -> "QueryBuilder":
        """Override the context's conjunction mode (Section 8)."""
        self._conjunction = mode
        return self

    def adaptive(self, enabled: bool = True) -> "QueryBuilder":
        """Opt this query out of (or back into) adaptive planning.

        ``adaptive(False)`` bypasses the engine's plan cache and
        measured-history chooser for this query alone: the static
        planner runs fresh and nothing is recorded. A no-op when the
        context already disabled the adaptive layer engine-wide.
        """
        if not isinstance(enabled, bool):
            raise TypeError(
                f"adaptive() expects a bool, got {type(enabled).__name__}"
            )
        self._adaptive = enabled
        return self

    def epsilon(self, epsilon: float) -> "QueryBuilder":
        """Accept a certified ε-approximate answer (θ/(1+ε) stopping).

        With ``epsilon > 0``, contract-aware algorithms (TA, NRA) may
        stop as soon as the k-th best certified grade is within a
        ``(1 + ε)`` factor of the threshold: every returned item y then
        carries the certificate ``(1 + ε) · μ(y) >= μ(z)`` for every
        excluded z. The result's ``guarantee`` records what was
        actually delivered — algorithms whose termination cannot be
        relaxed (A0's match-count stop) run to completion and deliver
        ``exact``, which satisfies any ε. ``epsilon(0)`` is the exact
        contract and is bit-identical to not calling this at all;
        this per-query value overrides the context's ``epsilon``.
        """
        self._epsilon = validate_epsilon(epsilon)
        return self

    # ------------------------------------------------------------------
    # Terminal operations
    # ------------------------------------------------------------------

    def top(self, k: int | None = None):
        """Execute and return the top-k answer.

        Returns a :class:`~repro.middleware.executor.QueryAnswer` for
        catalog-backed engines (plan + provenance included) and a
        :class:`~repro.algorithms.base.TopKResult` for source-backed
        ones.
        """
        return self._engine._execute(
            query=self._query,
            aggregation=self._aggregation,
            strategy=self._strategy,
            conjunction=self._conjunction,
            k=k,
            adaptive=self._adaptive,
            epsilon=self._epsilon,
        )

    def run(self, k: int | None = None):
        """Alias of :meth:`top` for callers who read better with it."""
        return self.top(k)

    def cursor(self) -> "ResultCursor":
        """Open an incremental cursor instead of a one-shot answer.

        Cursors always page with the incremental Fagin machinery, so
        combining ``.strategy()`` with ``.cursor()`` raises rather
        than silently ignoring the forced strategy.
        """
        return self._engine._open_cursor(
            query=self._query,
            aggregation=self._aggregation,
            strategy=self._strategy,
            conjunction=self._conjunction,
            epsilon=self._epsilon,
        )

    def plan(self) -> "PhysicalPlan":
        """The physical plan this query would execute (no execution).

        The adaptive chooser, which only runs inside :meth:`top`, may
        still swap the algorithm of an auto-selected plan.
        """
        return self._engine._plan_for(
            query=self._query,
            aggregation=self._aggregation,
            strategy=self._strategy,
            conjunction=self._conjunction,
            adaptive=self._adaptive,
            epsilon=self._epsilon,
        )[0]

    def explain(self) -> str:
        """Human-readable strategy description (no execution).

        With adaptive planning on, appends the plan-cache state, the
        weighted-access estimate and the measured history for this
        query's shape.
        """
        return self._engine._explain_spec(
            self._query,
            self._aggregation,
            self._strategy,
            self._conjunction,
            self._adaptive,
            epsilon=self._epsilon,
        )

    def __repr__(self) -> str:
        parts = []
        if self._query is not None:
            parts.append(f"query={self._query!r}")
        if self._aggregation is not None:
            parts.append(f"using={self._aggregation.name}")
        if self._strategy is not None:
            parts.append(f"strategy={self._strategy!r}")
        if self._epsilon is not None:
            parts.append(f"epsilon={self._epsilon:g}")
        return f"QueryBuilder({', '.join(parts)})"
