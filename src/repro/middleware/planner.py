"""The planner: query AST -> physical plan.

Strategy selection follows the paper's decision points:

1. **Rewrites** are applied only when the semantics provably preserves
   logical equivalence — by Theorem 3.1 that means min/max (the
   standard rules). With any other connective pair, rewriting a query
   into an "equivalent" one can change answers, so the planner leaves
   the tree alone. (The applied rewrites are conservative
   flatten/dedup steps: A AND A -> A, nested AND/OR flattening.)
2. A conjunction with at least one *selective crisp* conjunct uses the
   **filtered-conjunct strategy** of Section 4's first example.
3. A conjunction whose atoms all live in one subsystem can be **pushed
   down** as an internal conjunction when the caller opts into
   Section 8's internal mode.
4. Everything else goes to the **algorithm table** of
   :mod:`repro.engine.registry`: B0 for max-disjunctions, A0' for
   min-conjunctions, the median construction, generic A0 for the rest
   of the monotone queries, and for negation or other non-monotone
   structure the naive full scan, the table's only strategy that
   admits them (Theorem 7.1 shows that in the worst case nothing
   better exists).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.access.cost import CostModel
from repro.core.query import And, AtomicQuery, Not, Or, Query
from repro.core.semantics import STANDARD_FUZZY, FuzzySemantics
from repro.core.tconorms import MaximumTConorm
from repro.core.tnorms import MinimumTNorm
from repro.engine.registry import select_strategy
from repro.middleware.catalog import Catalog
from repro.middleware.compile import CompiledQueryAggregation
from repro.middleware.plan import (
    AlgorithmPlan,
    FilteredConjunctPlan,
    InternalConjunctionPlan,
    PhysicalPlan,
)

__all__ = ["Planner", "PlannerOptions"]


@dataclass(frozen=True)
class PlannerOptions:
    """Tuning knobs for strategy selection.

    Attributes
    ----------
    selectivity_threshold:
        A crisp conjunct qualifies for the filtered strategy when its
        estimated selectivity is at most this fraction ("there are not
        many objects that satisfy the first conjunct", Section 4).
    allow_internal_conjunction:
        Permit Section 8 pushdown when a conjunction's atoms share a
        subsystem that supports it. Off by default because the answer
        follows the *subsystem's* semantics, not Garlic's — the user
        must opt in, exactly as Section 8 prescribes ("The user could
        request an internal conjunction for the sake of efficiency").
    """

    selectivity_threshold: float = 0.1
    allow_internal_conjunction: bool = False


class Planner:
    """Compiles queries against a catalog into physical plans."""

    def __init__(
        self,
        catalog: Catalog,
        semantics: FuzzySemantics = STANDARD_FUZZY,
        options: PlannerOptions | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self._catalog = catalog
        self._semantics = semantics
        self._options = options or PlannerOptions()
        #: Optional (c1, c2) weighting handed to strategy selection —
        #: expensive random access steers monotone queries to NRA.
        self._cost_model = cost_model

    # ------------------------------------------------------------------
    # Rewrites
    # ------------------------------------------------------------------

    def _equivalence_preserving(self) -> bool:
        """May the planner rewrite by logical equivalence?

        Theorem 3.1: only min/max preserve equivalence of and/or
        queries, so only the standard semantics licenses rewrites.
        """
        return isinstance(self._semantics.tnorm, MinimumTNorm) and isinstance(
            self._semantics.conorm, MaximumTConorm
        )

    def rewrite(self, query: Query) -> Query:
        """Conservative cleanup rewrites (idempotence dedup).

        Only applied under equivalence-preserving semantics; nested
        AND/OR flattening already happens structurally at construction.
        """
        if not self._equivalence_preserving():
            return query
        return self._dedup(query)

    def _dedup(self, query: Query) -> Query:
        if isinstance(query, (And, Or)):
            rewritten = [self._dedup(op) for op in query.operands]
            unique = list(dict.fromkeys(rewritten))
            if len(unique) == 1:
                return unique[0]
            return type(query)(unique)
        if isinstance(query, Not):
            return Not(self._dedup(query.operand))
        return query

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self, query: Query) -> PhysicalPlan:
        """Choose a physical strategy for ``query``."""
        return self.plan_rewritten(self.rewrite(query))

    def plan_rewritten(self, query: Query) -> PhysicalPlan:
        """Plan a query :meth:`rewrite` has already been applied to.

        The adaptive layer normalizes shapes over the *rewritten* tree
        (so ``A AND A`` and ``A`` share a cache entry) and has
        therefore already paid for the rewrite; this entry point lets
        it mint the plan without a second pass. The rewrites are
        idempotent, so ``plan(q) == plan_rewritten(rewrite(q))``.
        """
        atoms = query.atoms()
        if not atoms:
            raise ValueError("query has no atomic subqueries")
        for atom in atoms:
            # Fail fast on unknown attributes.
            self._catalog.subsystem_for(atom)

        aggregation = CompiledQueryAggregation(query, self._semantics)
        random_access_ok = all(
            self._catalog.subsystem_for(a).supports_random_access
            for a in atoms
        )

        if (
            random_access_ok
            and isinstance(query, And)
            and all(isinstance(op, AtomicQuery) for op in query.operands)
        ):
            conjunction_plan = self._plan_conjunction(query, aggregation)
            if conjunction_plan is not None:
                return conjunction_plan

        run_aggregation = self._pick_table_aggregation(query, aggregation)
        choice = select_strategy(
            run_aggregation,
            len(atoms),
            random_access=random_access_ok,
            cost_model=self._cost_model,
        )
        return AlgorithmPlan(
            query=query,
            reason=choice.reason,
            atoms=atoms,
            algorithm=choice.algorithm,
            aggregation=run_aggregation,
        )

    def _pick_table_aggregation(self, query: Query, compiled):
        """What to hand the algorithm-selection table.

        A flat AND-of-atoms under min *is* the min aggregation (so A0'
        applies); a flat OR-of-atoms under max is max (B0). Anything
        nested keeps the compiled composite: generic A0 when it is
        monotone, the naive scan when it is not.
        """
        if isinstance(query, And) and all(
            isinstance(op, AtomicQuery) for op in query.operands
        ):
            if isinstance(self._semantics.tnorm, MinimumTNorm):
                return self._semantics.tnorm
        if isinstance(query, Or) and all(
            isinstance(op, AtomicQuery) for op in query.operands
        ):
            if isinstance(self._semantics.conorm, MaximumTConorm):
                return self._semantics.conorm
        return compiled

    def _plan_conjunction(
        self, query: And, aggregation: CompiledQueryAggregation
    ) -> PhysicalPlan | None:
        """Conjunction-specific strategies, or None to fall through."""
        atoms = tuple(query.operands)  # all atomic by the caller's check

        if self._options.allow_internal_conjunction:
            owner = self._catalog.same_subsystem(atoms)
            if owner is not None and owner.supports_internal_conjunction:
                return InternalConjunctionPlan(
                    query=query,
                    reason=(
                        "all conjuncts live in one subsystem supporting "
                        "internal conjunction; pushdown requested "
                        "(Section 8 — note the subsystem's own semantics "
                        "applies)"
                    ),
                    atoms=atoms,
                    subsystem=owner,
                )

        crisp_selective = [
            a
            for a in atoms
            if self._catalog.is_crisp(a)
            and (self._catalog.selectivity(a) or 1.0)
            <= self._options.selectivity_threshold
        ]
        if crisp_selective and len(crisp_selective) < len(atoms):
            graded = tuple(a for a in atoms if a not in crisp_selective)
            return FilteredConjunctPlan(
                query=query,
                reason=(
                    "selective crisp conjunct(s) available: determine the "
                    "matching set first, then random-access the graded "
                    "conjuncts for just those objects (Section 4, the "
                    "Artist='Beatles' example)"
                ),
                filter_atoms=tuple(crisp_selective),
                graded_atoms=graded,
                aggregation=aggregation,
            )
        return None
