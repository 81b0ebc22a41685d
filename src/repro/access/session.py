"""Middleware sessions: what an algorithm run sees.

A session bundles the m instrumented sources (one per atomic subquery),
the shared cost tracker, and the object-population size. Algorithms in
:mod:`repro.algorithms` take a session and can reach grades only
through its sources — mirroring how Garlic "receives answers to
subqueries from various subsystems, which can be accessed only in
limited ways" (Abstract).

A session is the unit of *mutable* state in the concurrency model:
its sorted cursors and cost tracker belong to exactly one query run
and must not be shared between threads. The stores sessions are
minted from (:class:`~repro.access.columnar.ColumnarScoringDatabase`,
the subsystems' ranking caches) are shared read-only, so serving many
queries in parallel means one cheap session per query, never one
session across queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.access.cost import CostTracker
from repro.access.source import InstrumentedSource, SortedRandomSource

__all__ = ["MiddlewareSession"]


@dataclass
class MiddlewareSession:
    """The m ranked sources an algorithm run may access, plus accounting.

    Attributes
    ----------
    sources:
        One :class:`SortedRandomSource` per atomic subquery, already
        instrumented so every access is charged to :attr:`tracker`.
    tracker:
        Shared cost accumulator; its per-list indices correspond to the
        *original* list positions even inside sub-sessions.
    num_objects:
        N, the size of the object population (every list ranks the
        same N objects in the formal model of Section 5).
    """

    sources: tuple[SortedRandomSource, ...]
    tracker: CostTracker
    num_objects: int

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("a session needs at least one source")
        self.sources = tuple(self.sources)

    @property
    def num_lists(self) -> int:
        return len(self.sources)

    @classmethod
    def over_sources(
        cls, raw_sources: Sequence[SortedRandomSource], num_objects: int | None = None
    ) -> "MiddlewareSession":
        """Build a session by instrumenting plain sources with a fresh tracker."""
        tracker = CostTracker(len(raw_sources))
        instrumented = tuple(
            InstrumentedSource(src, tracker, i) for i, src in enumerate(raw_sources)
        )
        if num_objects is None:
            num_objects = max(len(src) for src in raw_sources)
        return cls(instrumented, tracker, num_objects)

    def subsession(
        self, list_indices: Sequence[int], restart: bool = True
    ) -> "MiddlewareSession":
        """A session over a subset of this session's lists.

        Used by the median algorithm of Remark 6.1, which runs A0 on
        each pair of lists. The tracker is shared, so sub-run costs
        accumulate into the parent's accounting (the remark's cost
        analysis adds the three A0 runs). With ``restart`` (the
        default) the sub-run re-issues sorted access from the top, as a
        real middleware would when starting a fresh subquery.
        """
        chosen = tuple(self.sources[i] for i in list_indices)
        if restart:
            for src in chosen:
                src.restart()
        return MiddlewareSession(chosen, self.tracker, self.num_objects)
