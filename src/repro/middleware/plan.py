"""Physical plans: how the executor will evaluate a query.

The planner compiles a parsed query into one of four strategies, each
grounded in a specific part of the paper:

* :class:`AlgorithmPlan` — fetch one source per atom and run a chosen
  top-k algorithm (A0 / A0' / B0 / median / TA) on the compiled
  aggregation; the paper's main evaluation pathway (Section 4).
* :class:`FilteredConjunctPlan` — the strategy of Section 4's first
  example: evaluate a selective crisp conjunct to a set S, then use
  random access to grade only S's members under the other conjuncts.
* :class:`InternalConjunctionPlan` — Section 8: push a conjunction
  down into a single subsystem that evaluates it under its own
  semantics; the answer is then just the top of one sorted stream.
* :class:`FullScanPlan` — the naive algorithm, the only strategy that
  is correct for arbitrary (e.g. negated) queries; Theorem 7.1 shows
  this is sometimes unavoidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.access.session import MiddlewareSession
from repro.algorithms.base import TopKAlgorithm
from repro.core.aggregation import AggregationFunction
from repro.core.query import AtomicQuery, Query
from repro.middleware.compile import CompiledQueryAggregation
from repro.subsystems.base import Subsystem

__all__ = [
    "PhysicalPlan",
    "AlgorithmPlan",
    "FilteredConjunctPlan",
    "InternalConjunctionPlan",
    "FullScanPlan",
]


@dataclass(frozen=True)
class PhysicalPlan:
    """Base: a strategy plus the query and the planner's justification.

    ``query`` is None for plans over raw ranked lists, which answer an
    aggregation rather than a query tree.
    """

    query: Query | None
    reason: str

    def explain(self) -> str:
        """One-paragraph human-readable description of the strategy."""
        return f"{type(self).__name__}: {self.reason}"


@dataclass(frozen=True)
class AlgorithmPlan(PhysicalPlan):
    """Run ``algorithm`` over one source per atom with ``aggregation``.

    A plan over raw ranked lists (the Section 5 model) has no atoms:
    its ``session`` supplies the lists the atoms would have.
    """

    atoms: tuple[AtomicQuery, ...] = ()
    algorithm: TopKAlgorithm | None = None
    #: The aggregation handed to the algorithm: the plain t-norm/co-norm
    #: for flat AND/OR under standard semantics (so A0'/B0's type checks
    #: see min/max), otherwise the compiled composite.
    aggregation: AggregationFunction | None = None
    #: The session whose ranked lists stand in for the atoms, minted
    #: for this one run; None for catalog plans, whose sources the
    #: executor mints per atom.
    session: MiddlewareSession | None = field(default=None, compare=False)

    @property
    def num_lists(self) -> int:
        """m, the number of graded lists the algorithm combines."""
        if self.session is not None:
            return self.session.num_lists
        return len(self.atoms)

    def explain(self) -> str:
        assert self.algorithm is not None
        if self.atoms:
            atom_list = ", ".join(map(repr, self.atoms))
            target = f" over atoms [{atom_list}]"
        elif self.session is not None:
            target = f" over {self.num_lists} ranked lists"
        else:
            target = ""
        return f"AlgorithmPlan[{self.algorithm.name}]{target} — {self.reason}"


@dataclass(frozen=True)
class FilteredConjunctPlan(PhysicalPlan):
    """Crisp selective conjuncts filter; graded conjuncts via random access.

    "a good way to evaluate this query would be first to determine all
    objects that satisfy the first conjunct (call this set of objects
    S), and then to obtain grades from QBIC (using random access) for
    the second conjunct for all objects in S." (Section 4)
    """

    filter_atoms: tuple[AtomicQuery, ...] = ()
    graded_atoms: tuple[AtomicQuery, ...] = ()
    aggregation: CompiledQueryAggregation | None = None

    def explain(self) -> str:
        filters = ", ".join(map(repr, self.filter_atoms))
        graded = ", ".join(map(repr, self.graded_atoms))
        return (
            f"FilteredConjunctPlan: filter on [{filters}], random-access "
            f"grades for [{graded}] — {self.reason}"
        )


@dataclass(frozen=True)
class InternalConjunctionPlan(PhysicalPlan):
    """Push the whole conjunction into one subsystem (Section 8)."""

    atoms: tuple[AtomicQuery, ...] = ()
    subsystem: Subsystem | None = None

    def explain(self) -> str:
        assert self.subsystem is not None
        atom_list = ", ".join(map(repr, self.atoms))
        return (
            f"InternalConjunctionPlan: subsystem {self.subsystem.name!r} "
            f"evaluates [{atom_list}] under its own semantics — {self.reason}"
        )


@dataclass(frozen=True)
class FullScanPlan(PhysicalPlan):
    """Naive full scan — correct for any query."""

    atoms: tuple[AtomicQuery, ...] = ()
    aggregation: CompiledQueryAggregation | None = None

    def explain(self) -> str:
        return (
            f"FullScanPlan over {len(self.atoms)} atom(s) — {self.reason}"
        )
