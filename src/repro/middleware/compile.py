"""Compiling a query tree into an m-ary aggregation over its atoms.

The algorithms of Section 4 are stated for ``Ft(A1, ..., Am)`` — one
aggregation function applied to atomic grades. An arbitrary
negation-free Boolean combination like ``A AND (B OR C)`` *is* such an
``Ft``: the composite t(g_A, g_B, g_C) = tnorm(g_A, conorm(g_B, g_C))
is itself an aggregation function, monotone whenever the connectives
are (composition of monotone functions), which is exactly what
Theorem 4.2 needs. :class:`CompiledQueryAggregation` performs that
compilation, inheriting its monotone/strict flags from the semantics'
conservative classification.

Compilation also targets the bulk pipeline: when every connective in
the tree has a vectorized kernel (:mod:`repro.core.kernels`), the
compiled aggregation assembles a *column plan* — a composition of
kernels that scores a whole (m, n) grade matrix at once — and exposes
it through the instance-level ``aggregate_columns`` capability, so the
filtered-conjunct executor and the naive scan evaluate the query tree
in a handful of numpy sweeps instead of one Python recursion per
object. A weighted node ([FW97]) compiles to the Fagin-Wimmers kernel
over the semantics' t-norm. Any node without a kernel (an exotic norm,
a non-standard negation) declines vectorization entirely and the
scalar fold applies unchanged — same answers either way.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as _np

from repro.core.aggregation import AggregationFunction
from repro.core.kernels import kernel_for
from repro.core.negations import StandardNegation
from repro.core.query import And, AtomicQuery, Ft, Not, Or, Query, Weighted
from repro.core.semantics import FuzzySemantics
from repro.core.weights import FaginWimmersWeighting

__all__ = ["CompiledQueryAggregation"]


class CompiledQueryAggregation(AggregationFunction):
    """The query's grade as a function of its atoms' grades.

    Argument order follows ``query.atoms()`` (first-appearance order);
    the ``atoms`` attribute records it so callers can line sources up.
    An atom appearing several times in the tree (e.g. ``A AND (A OR
    B)``) is still a *single* argument — its grade is shared, exactly
    as the semantics of Section 3 prescribe.

    ``vectorize=False`` suppresses the column plan even when every
    connective has a kernel — the lane the perf harness uses to
    isolate what the vectorized computation phase buys.
    """

    def __init__(
        self,
        query: Query,
        semantics: FuzzySemantics,
        vectorize: bool = True,
    ) -> None:
        self.query = query
        self.semantics = semantics
        self.atoms: tuple[AtomicQuery, ...] = query.atoms()
        if not self.atoms:
            raise ValueError("query has no atomic subqueries")
        self.arity = len(self.atoms)
        classification = semantics.classify(query)
        self.monotone = classification.monotone
        self.strict = classification.strict
        self.name = f"compiled({query!r})"
        if vectorize:
            column_plan = self._compile_columns(
                query, {atom: i for i, atom in enumerate(self.atoms)}
            )
            if column_plan is not None:
                # Instance-level VectorizedAggregation capability: set
                # only when the *whole* tree kernelised, so kernel_for
                # never sees a partial plan.
                self.aggregate_columns = column_plan

    def aggregate(self, grades: Sequence[float]) -> float:
        valuation = dict(zip(self.atoms, grades))
        return self.semantics.evaluate(self.query, valuation)

    # ------------------------------------------------------------------
    # Column-plan compilation
    # ------------------------------------------------------------------

    def _compile_columns(
        self, query: Query, index: dict[AtomicQuery, int]
    ) -> Callable | None:
        """A kernel composition scoring every matrix column, or None.

        Mirrors :meth:`~repro.core.semantics.FuzzySemantics.evaluate`
        node for node: atoms read their matrix row, And/Or apply the
        semantics' connective kernel to the stacked child vectors, Ft
        applies its own aggregation's kernel, Weighted the [FW97]
        weighting of the semantics' t-norm, and Not applies the
        standard negation (the only one with a closed vector form we
        vectorize). Each connective's output is clipped into [0, 1], as
        ``clamp_grade`` clamps every node's value on the scalar path,
        so a kernel that rounds a hair above 1 feeds its parent what
        the scalar path feeds it.
        Returns ``None`` — decline, scalar fold — as soon as any node
        lacks a kernel, so vectorization is all-or-nothing per query.
        """
        if isinstance(query, AtomicQuery):
            row = index[query]
            return lambda matrix: matrix[row]
        if isinstance(query, Not):
            if not isinstance(self.semantics.negation, StandardNegation):
                return None
            operand = self._compile_columns(query.operand, index)
            if operand is None:
                return None
            return lambda matrix: 1.0 - operand(matrix)
        if isinstance(query, And):
            connective: AggregationFunction = self.semantics.tnorm
        elif isinstance(query, Or):
            connective = self.semantics.conorm
        elif isinstance(query, Ft):
            connective = query.aggregation
        elif isinstance(query, Weighted):
            # Declines (kernel None) when the t-norm has no kernel.
            connective = FaginWimmersWeighting(
                self.semantics.tnorm, query.weights
            )
        else:  # future node types: scalar evaluation only
            return None
        kernel = kernel_for(connective)
        if kernel is None:
            return None
        children = [self._compile_columns(c, index) for c in query.children()]
        if any(child is None for child in children):
            return None

        def run(matrix, kernel=kernel, children=tuple(children)):
            return _np.clip(
                kernel(_np.stack([child(matrix) for child in children])),
                0.0,
                1.0,
            )

        return run
