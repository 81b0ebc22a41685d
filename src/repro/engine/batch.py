"""Batch execution results: many queries, one summed accounting ledger.

``Engine.run_many`` runs each member through the engine's one query
pipeline in its own session, exactly as a one-shot query runs; a
subquery appearing in several catalog-backed members is ranked once,
by its subsystem's ranking cache. :class:`BatchResult` carries the
per-query answers plus the batch-wide access totals, the Section 5
cost ledger lifted to many queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.access.cost import AccessStats, CostModel, UNWEIGHTED
from repro.algorithms.base import TopKResult

__all__ = ["BatchResult", "stats_of"]


def stats_of(answer: object) -> AccessStats:
    """The access stats of either answer shape.

    ``Engine`` returns :class:`~repro.middleware.executor.QueryAnswer`
    for catalog-backed queries and plain
    :class:`~repro.algorithms.base.TopKResult` for source-backed ones;
    both carry the same accounting.
    """
    if isinstance(answer, TopKResult):
        return answer.stats
    result = getattr(answer, "result", None)
    if isinstance(result, TopKResult):
        return result.stats
    raise TypeError(f"no access stats on {type(answer).__name__}")


@dataclass(frozen=True)
class BatchResult:
    """Answers of one ``run_many`` call plus batch-wide cost totals.

    Attributes
    ----------
    answers:
        One answer per submitted query, in submission order.
    total_sorted / total_random:
        Batch-wide S and R — summed across queries (queries may touch
        different list counts, so the totals are scalars, not per-list
        tuples).
    details:
        Batch diagnostics: ``queries``, ``parallel`` (worker count,
        when the batch ran on a thread pool — the totals, per-member
        stats summed, equal the serial batch's), and ``sharded`` /
        ``shards`` / ``processes`` (sharded batches). How often the
        members' atoms hit the ranking caches is in
        ``Engine.metrics_snapshot()["cache_totals"]``.
    """

    answers: tuple[object, ...]
    total_sorted: int
    total_random: int
    details: Mapping[str, object] = field(default_factory=dict)

    @property
    def total_accesses(self) -> int:
        """S + R across the whole batch (unweighted middleware cost)."""
        return self.total_sorted + self.total_random

    def middleware_cost(self, model: CostModel = UNWEIGHTED) -> float:
        """c1*S + c2*R for the whole batch."""
        return (
            model.sorted_weight * self.total_sorted
            + model.random_weight * self.total_random
        )

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[object]:
        return iter(self.answers)

    def __getitem__(self, index: int) -> object:
        return self.answers[index]

    def __repr__(self) -> str:
        return (
            f"BatchResult({len(self.answers)} queries, "
            f"S={self.total_sorted}, R={self.total_random})"
        )
