"""The executor: runs physical plans against registered subsystems.

Every access a strategy makes flows through instrumented sources, so a
:class:`QueryAnswer` carries the true middleware cost of the execution
— the same accounting the paper's Section 5 analysis is about, now at
the federated level.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.access.cost import CostTracker
from repro.access.session import MiddlewareSession
from repro.access.source import InstrumentedSource, tie_break_key
from repro.access.types import GradedItem
from repro.algorithms.base import TopKResult, top_k_of
from repro.algorithms.naive import NaiveAlgorithm
from repro.core.certify import EXACT_GUARANTEE
from repro.core.graded_set import GradedSet
from repro.core.query import Query
from repro.core.semantics import FuzzySemantics
from repro.exceptions import PlanningError
from repro.middleware.catalog import Catalog
from repro.middleware.plan import (
    AlgorithmPlan,
    FilteredConjunctPlan,
    FullScanPlan,
    InternalConjunctionPlan,
    PhysicalPlan,
)

__all__ = ["QueryAnswer", "Executor"]


@dataclass(frozen=True)
class QueryAnswer:
    """A top-k answer with its provenance: plan, query, and cost."""

    query: Query
    plan: PhysicalPlan
    result: TopKResult

    @property
    def items(self) -> tuple[GradedItem, ...]:
        return self.result.items

    def as_graded_set(self) -> GradedSet:
        return self.result.as_graded_set()

    def explain(self) -> str:
        stats = self.result.stats
        return (
            f"{self.plan.explain()}\n"
            f"cost: S={stats.sorted_cost} sorted + R={stats.random_cost} "
            f"random = {stats.sum_cost} accesses"
        )

    def __repr__(self) -> str:
        return (
            f"QueryAnswer(k={self.result.k}, "
            f"plan={type(self.plan).__name__}, "
            f"cost={self.result.stats.sum_cost})"
        )


class Executor:
    """Executes physical plans over a catalog of subsystems.

    Every atom's source comes from its owning subsystem's
    :meth:`~repro.subsystems.base.Subsystem.evaluate`, a fresh sorted
    stream per issue. An executor holds no per-execution state —
    ``execute`` builds a fresh session/tracker per plan — so one
    instance may serve plans from several threads: the subsystems'
    ranking caches are shared read-only, and each issue mints its own
    cursor off them.
    """

    def __init__(self, catalog: Catalog, semantics: FuzzySemantics) -> None:
        self._catalog = catalog
        self._semantics = semantics

    def execute(
        self, plan: PhysicalPlan, k: int, contract=None
    ) -> QueryAnswer:
        """Run ``plan`` and return the top-k answer with cost accounting.

        ``contract`` (a :class:`~repro.core.certify.QualityContract`,
        or ``None`` for exact) reaches contract-aware algorithms
        through :class:`AlgorithmPlan` execution; every other plan
        shape runs to exact completion regardless — exact satisfies
        any ε, and the answer's ``guarantee`` records it honestly.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if isinstance(plan, AlgorithmPlan):
            result = self._run_algorithm(plan, k, contract)
        elif isinstance(plan, FilteredConjunctPlan):
            result = self._run_filtered(plan, k)
        elif isinstance(plan, InternalConjunctionPlan):
            result = self._run_internal(plan, k)
        elif isinstance(plan, FullScanPlan):
            result = self._run_full_scan(plan, k)
        else:
            raise PlanningError(f"unknown plan type {type(plan).__name__}")
        return QueryAnswer(query=plan.query, plan=plan, result=result)

    # ------------------------------------------------------------------
    # Strategies
    # ------------------------------------------------------------------

    def session_for(
        self, plan: "AlgorithmPlan | FullScanPlan"
    ) -> MiddlewareSession:
        """The instrumented session a plan's algorithm reads: the
        plan's own session when it has one, else one source per atom,
        with a fresh tracker."""
        session = getattr(plan, "session", None)
        if session is not None:
            return session
        raw = [self._catalog.subsystem_for(atom).evaluate(atom) for atom in plan.atoms]
        return MiddlewareSession.over_sources(
            raw, num_objects=self._catalog.num_objects
        )

    def _run_algorithm(
        self, plan: AlgorithmPlan, k: int, contract=None
    ) -> TopKResult:
        assert plan.algorithm is not None and plan.aggregation is not None
        return plan.algorithm.top_k(
            self.session_for(plan), plan.aggregation, k, contract
        )

    def _run_full_scan(self, plan: FullScanPlan, k: int) -> TopKResult:
        assert plan.aggregation is not None
        return NaiveAlgorithm().top_k(self.session_for(plan), plan.aggregation, k)

    def _run_internal(self, plan: InternalConjunctionPlan, k: int) -> TopKResult:
        assert plan.subsystem is not None
        tracker = CostTracker(1)
        source = InstrumentedSource(
            plan.subsystem.evaluate_conjunction(list(plan.atoms)), tracker, 0
        )
        items = []
        for _ in range(min(k, len(source))):
            items.append(source.next_sorted())
        return TopKResult(
            items=tuple(items),
            stats=tracker.snapshot(),
            algorithm="internal-conjunction",
            details={"subsystem": plan.subsystem.name},
            guarantee=EXACT_GUARANTEE,
        )

    def _run_filtered(self, plan: FilteredConjunctPlan, k: int) -> TopKResult:
        """The Section 4 filtered-conjunct strategy.

        1. For each crisp filter atom, read its sorted stream just past
           the grade-1 block, in pages (:meth:`_crisp_block`); intersect
           the match sets to get S.
        2. Fetch each graded conjunct's grades for S's members with one
           ``random_access_many``.
        3. Grade S's members with the compiled aggregation (filter
           atoms contribute 1) in one column sweep. Objects outside S
           provably have grade 0 (some crisp conjunct is 0 and every
           t-norm annihilates at 0), so if |S| < k the answer is padded
           with grade-0 objects — no further accesses needed.

        Access counts are those of the paper's one-by-one protocol: a
        batch of b accesses costs b unit accesses.
        """
        assert plan.aggregation is not None
        compiled = plan.aggregation
        all_atoms = compiled.atoms  # argument order of the aggregation
        tracker = CostTracker(len(plan.filter_atoms) + len(plan.graded_atoms))

        sources = {}
        for index, atom in enumerate(plan.filter_atoms + plan.graded_atoms):
            raw = self._catalog.subsystem_for(atom).evaluate(atom)
            sources[atom] = InstrumentedSource(raw, tracker, index)

        # Phase 1: crisp match sets off the top of each filter stream.
        survivors: set | None = None
        for atom in plan.filter_atoms:
            matches = self._crisp_block(sources[atom], atom)
            survivors = matches if survivors is None else (survivors & matches)
            if not survivors:
                break
        assert survivors is not None

        # Phase 2: random access the graded conjuncts for S's members,
        # then score the whole set in one column sweep (vectorized when
        # the compiled aggregation carries a kernel plan). ``ordered``
        # fixes a deterministic column order; the scores themselves are
        # order-independent.
        ordered = sorted(survivors, key=tie_break_key)
        rows: list[list[float]] = []
        for atom in all_atoms:
            if atom in plan.filter_atoms:
                rows.append([1.0] * len(ordered))
            else:
                rows.append(sources[atom].random_access_many(ordered))
        scores = compiled.evaluate_columns(rows) if ordered else []
        scored = dict(zip(ordered, scores))

        items = list(top_k_of(scored, min(k, len(scored))))

        # Phase 3: pad with certified grade-0 objects if needed, in the
        # library-wide deterministic tie order (integer populations pad
        # numerically, not by the lexicographic repr that put 10 < 2).
        if len(items) < k:
            padding = sorted(
                (obj for obj in self._catalog.objects if obj not in survivors),
                key=tie_break_key,
            )
            for obj in padding[: k - len(items)]:
                items.append(GradedItem(obj, 0.0))

        return TopKResult(
            items=tuple(items),
            stats=tracker.snapshot(),
            algorithm="filtered-conjunct",
            details={"filter_set_size": len(survivors)},
            guarantee=EXACT_GUARANTEE,
        )

    def _crisp_block(self, source, atom) -> set:
        """The grade-1 block of a crisp stream, read in sorted-access
        pages: matches off the top, up to the first non-match.

        The page sizing keeps the Section 5 accounting identical to the
        paper's one-by-one protocol. When the owning subsystem declares
        its selectivity statistic *exact* (``selectivity_is_exact``),
        the statistic (a catalogue lookup, not a charged access — the
        planner already consulted it to pick this strategy) gives the
        block length B, and the reads total exactly the block plus the
        one probe item that proves it ended — ``B + 1`` accesses,
        precisely what the one-by-one loop performs (a short count
        degrades to unit-sized probe pages past the predicted prefix
        and still lands on B + 1). Without an exactness declaration the
        estimate is not trusted for sizing at all — an over-estimate
        would over-read and inflate the sorted count — and the block is
        read in unit-sized pages, the one-by-one accounting by
        construction.
        """
        matches: set = set()
        subsystem = self._catalog.subsystem_for(atom)
        selectivity = (
            subsystem.estimate_selectivity(atom)
            if subsystem.selectivity_is_exact
            else None
        )
        expected = (
            int(round(selectivity * len(source)))
            if selectivity is not None
            else 0
        )
        while not source.exhausted:
            objects, grades = source.sorted_access_batch(
                max(expected - len(matches), 0) + 1
            )
            if not objects:
                break
            for obj, grade in zip(objects, grades):
                if grade >= 1.0:
                    matches.add(obj)
                else:
                    return matches  # block ended inside this page
        return matches
