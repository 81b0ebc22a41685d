"""Evaluation of Boolean combinations of atomic queries (Sections 2-3).

A :class:`FuzzySemantics` bundles the three evaluation rules:

    Conjunction rule:  mu_{A AND B}(x) = t(mu_A(x), mu_B(x))
    Disjunction rule:  mu_{A OR B}(x)  = s(mu_A(x), mu_B(x))
    Negation rule:     mu_{NOT A}(x)   = n(mu_A(x))

The default :data:`STANDARD_FUZZY` semantics uses Zadeh's rules
(t = min, s = max, n(x) = 1 - x), which Section 3 singles out: they
conservatively extend propositional logic and, by Theorem 3.1, min/max
are the unique monotone equivalence-preserving choice.

Evaluation comes in two forms:

* :meth:`FuzzySemantics.evaluate` — the grade of a *single object*,
  given that object's grades under each atomic query (the per-object
  view used by the algorithms);
* :meth:`FuzzySemantics.evaluate_sets` — a whole :class:`GradedSet`
  answer, given the graded-set answer of each atomic query (the
  set-level view used by the middleware executor and the naive
  algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping

from repro.core.aggregation import TConorm, TNorm
from repro.core.graded_set import GradedSet, ObjectId
from repro.core.negations import STANDARD_NEGATION, Negation
from repro.core.query import And, AtomicQuery, Ft, Not, Or, Query, Weighted
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import MINIMUM
from repro.core.weights import FaginWimmersWeighting

__all__ = ["FuzzySemantics", "STANDARD_FUZZY", "QueryClassification"]


@lru_cache(maxsize=128)
def _weighting(
    tnorm: TNorm, weights: tuple[float, ...]
) -> FaginWimmersWeighting:
    """The [FW97] weighting of ``tnorm`` by ``weights``, built once.

    Per-object evaluation scores every object of a weighted query
    through the same weighting, so it is not rebuilt (weights
    normalised, order and terms derived) per object.
    """
    return FaginWimmersWeighting(tnorm, weights)


@dataclass(frozen=True)
class QueryClassification:
    """Whether the paper's two key properties hold for a whole query.

    ``monotone`` gates A0's correctness (Theorem 4.2); ``strict`` gates
    the lower bound (Theorem 6.4). Classification is *conservative*:
    it returns True only when the structure guarantees the property.
    """

    monotone: bool
    strict: bool


@dataclass(frozen=True)
class FuzzySemantics:
    """A choice of conjunction / disjunction / negation rules.

    Immutable so a semantics can be shared freely across the
    middleware, the planner and the algorithms.
    """

    tnorm: TNorm = field(default_factory=lambda: MINIMUM)
    conorm: TConorm = field(default_factory=lambda: MAXIMUM)
    negation: Negation = field(default_factory=lambda: STANDARD_NEGATION)

    # ------------------------------------------------------------------
    # Per-object evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self, query: Query, atom_grades: Mapping[AtomicQuery, float]
    ) -> float:
        """mu_Q(x) for one object, from its grades under each atom.

        ``atom_grades`` maps every atomic subquery of ``query`` to the
        object's grade under that atom; a missing atom is an error (not
        silently graded 0), because per-object evaluation is exactly
        where the algorithms must never fabricate grades.
        """
        if isinstance(query, AtomicQuery):
            try:
                return atom_grades[query]
            except KeyError:
                raise KeyError(
                    f"no grade supplied for atomic query {query!r}"
                ) from None
        if isinstance(query, And):
            return self.tnorm(
                *(self.evaluate(q, atom_grades) for q in query.operands)
            )
        if isinstance(query, Or):
            return self.conorm(
                *(self.evaluate(q, atom_grades) for q in query.operands)
            )
        if isinstance(query, Not):
            return self.negation(self.evaluate(query.operand, atom_grades))
        if isinstance(query, Ft):
            return query.aggregation(
                *(self.evaluate(q, atom_grades) for q in query.operands)
            )
        if isinstance(query, Weighted):
            weighting = _weighting(self.tnorm, query.weights)
            return weighting(
                *(self.evaluate(q, atom_grades) for q in query.operands)
            )
        raise TypeError(f"unknown query node type {type(query).__name__}")

    # ------------------------------------------------------------------
    # Set-level evaluation
    # ------------------------------------------------------------------

    def evaluate_sets(
        self,
        query: Query,
        atom_sets: Mapping[AtomicQuery, GradedSet],
        universe: Iterable[ObjectId],
    ) -> GradedSet:
        """The full graded-set answer to ``query``.

        ``atom_sets`` maps each atomic subquery to its graded-set
        result; objects absent from an atom's graded set have grade 0
        there (the crisp-embedding convention of Section 2). The
        ``universe`` fixes the object population — required because
        negation can give positive grades to objects no atom mentions.
        """
        universe_list = list(universe)
        grades: dict[ObjectId, float] = {}
        for obj in universe_list:
            per_atom = {a: s.grade(obj) for a, s in atom_sets.items()}
            grades[obj] = self.evaluate(query, per_atom)
        return GradedSet(grades)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def classify(self, query: Query) -> QueryClassification:
        """Conservative monotone/strict classification of a query.

        * Atoms are monotone and strict (identity aggregation).
        * And is monotone always; strict iff the t-norm is strict
          (every t-norm is) and all operands are strict.
        * Or is monotone; never classified strict (co-norms reach 1
          with arguments below 1 — Remark 6.1's point about max).
        * Not destroys monotonicity (Section 7's hard query shows the
          consequences) and strictness.
        * Ft / Weighted inherit their aggregation's declared flags,
          combined with the operands' classification.
        """
        if isinstance(query, AtomicQuery):
            return QueryClassification(monotone=True, strict=True)
        if isinstance(query, Not):
            return QueryClassification(monotone=False, strict=False)
        child_class = [self.classify(q) for q in query.children()]
        children_monotone = all(c.monotone for c in child_class)
        children_strict = all(c.strict for c in child_class)
        if isinstance(query, And):
            return QueryClassification(
                monotone=children_monotone,
                strict=self.tnorm.strict and children_strict,
            )
        if isinstance(query, Or):
            return QueryClassification(
                monotone=children_monotone,
                strict=self.conorm.strict and children_strict,
            )
        if isinstance(query, Ft):
            return QueryClassification(
                monotone=query.aggregation.monotone and children_monotone,
                strict=query.aggregation.strict and children_strict,
            )
        if isinstance(query, Weighted):
            weighting = _weighting(self.tnorm, query.weights)
            return QueryClassification(
                monotone=weighting.monotone and children_monotone,
                strict=weighting.strict and children_strict,
            )
        raise TypeError(f"unknown query node type {type(query).__name__}")


#: Zadeh's standard rules: min / max / (1 - x). The paper's default.
STANDARD_FUZZY = FuzzySemantics()
