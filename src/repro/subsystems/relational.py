"""A crisp relational subsystem (the traditional half of Section 2).

    "A typical traditional database query might ask for the names of
    all albums where the artist is the Beatles. The result is a set …
    For traditional database queries, such as Artist = 'Beatles', the
    grade for each object is either 0 or 1."

Records are flat attribute/value mappings; atomic queries use crisp
equality (``Artist = "Beatles"``) and grade every object 0 or 1. The
sorted stream delivers all grade-1 objects first — which is what makes
the filtered-conjunct strategy of Section 4 work: read the matches off
the top, stop at the first 0.

Matches come from a value index built once per attribute (value ->
positions in the population order), the in-memory counterpart of a
relational engine's hash index; it serves ranking-cache misses and the
selectivity statistics alike. The index reproduces the scan's ``==``
exactly, so targets or columns it cannot represent faithfully —
unhashable ones, and values unequal to themselves, such as NaN — are
answered by the scan itself.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.access.source import SortedRandomSource, tie_break_order
from repro.access.types import ObjectId
from repro.core.query import AtomicQuery
from repro.subsystems.base import DEFAULT_RANKING_CACHE_CAPACITY, Subsystem

__all__ = ["RelationalSubsystem"]


class RelationalSubsystem(Subsystem):
    """An in-memory relation with equality predicates.

    Parameters
    ----------
    name:
        Subsystem label.
    records:
        object id -> {attribute: value}. All records must have the
        same attribute set (a single relation schema).
    cache_capacity:
        Distinct predicates whose materialised rankings are kept in the
        subsystem's :class:`~repro.subsystems.base.RankingCache`
        (``None`` = unbounded).
    """

    crisp = True

    def __init__(
        self,
        name: str,
        records: Mapping[ObjectId, Mapping[str, object]],
        cache_capacity: int | None = DEFAULT_RANKING_CACHE_CAPACITY,
    ) -> None:
        if not records:
            raise ValueError("a relational subsystem needs at least one record")
        self.name = name
        self.ranking_cache_capacity = cache_capacity
        self._records = {obj: dict(attrs) for obj, attrs in records.items()}
        schemas = {frozenset(attrs) for attrs in self._records.values()}
        if len(schemas) != 1:
            raise ValueError(
                f"records of {name!r} do not share a single schema: "
                f"{sorted(len(s) for s in schemas)} distinct attribute sets"
            )
        self._schema = next(iter(schemas))
        self._population = tie_break_order(self._records)
        self._value_index = {
            attr: _value_index(
                [self._records[obj][attr] for obj in self._population]
            )
            for attr in self._schema
        }

    def attributes(self) -> frozenset[str]:
        return self._schema

    def object_ids(self) -> frozenset[ObjectId]:
        return frozenset(self._records)

    def evaluate(self, query: AtomicQuery) -> SortedRandomSource:
        self.validate_query(query)
        if query.op != "=":
            raise ValueError(
                f"relational subsystem {self.name!r} evaluates crisp "
                f"equality only; got op {query.op!r}"
            )
        return self.ranking_cache.source(
            f"{self.name}:{query.attribute}={query.target!r}",
            query,
            lambda: self._crisp_grades(query.attribute, query.target),
            self._population,
        )

    def _crisp_grades(self, attribute: str, target: object) -> list[float]:
        """1.0 at every match, 0.0 elsewhere, in population order."""
        grades = [0.0] * len(self._population)
        for position in self._matches(attribute, target):
            grades[position] = 1.0
        return grades

    def _matches(self, attribute: str, target: object) -> Sequence[int]:
        """Population positions whose ``attribute`` value ``== target``."""
        index = self._value_index[attribute]
        if index is not None and _indexable(target):
            return index.get(target, ())
        return [
            position
            for position, obj in enumerate(self._population)
            if self._records[obj][attribute] == target
        ]

    #: The "estimate" is a literal count over the relation — exact, so
    #: the filtered-conjunct executor may size block reads from it.
    selectivity_is_exact = True

    def estimate_selectivity(self, query: AtomicQuery) -> float | None:
        """Exact selectivity from the relation's statistics."""
        if query.attribute not in self._schema or query.op != "=":
            return None
        matches = self._matches(query.attribute, query.target)
        return len(matches) / len(self._records)

    def matching_set(self, query: AtomicQuery) -> frozenset[ObjectId]:
        """The crisp answer set (for tests and ground truth)."""
        self.validate_query(query)
        population = self._population
        return frozenset(
            population[position]
            for position in self._matches(query.attribute, query.target)
        )


def _indexable(value: object) -> bool:
    """Can a hash lookup stand in for ``==`` on ``value``?

    A dict finds a key by hash and then ``==`` (or identity), so it
    agrees with the scan exactly for hashable values equal to
    themselves; a NaN is found by identity where ``==`` says False.
    """
    try:
        hash(value)
        return bool(value == value)
    except (TypeError, ValueError):
        return False


def _value_index(values: Sequence[object]) -> dict[object, list[int]] | None:
    """value -> positions holding an equal value, or None when some
    value is not :func:`_indexable` (the attribute is then scanned)."""
    index: dict[object, list[int]] = {}
    for position, value in enumerate(values):
        if not _indexable(value):
            return None
        index.setdefault(value, []).append(position)
    return index
