"""Synthetic graded subsystems — the benchmark substrate.

Wraps a :class:`~repro.access.scoring_database.ScoringDatabase` list or
a grade distribution behind the :class:`~repro.subsystems.base.Subsystem`
interface, so middleware-level experiments can run against exactly the
probabilistic model of Section 5 while exercising the same federation
code paths as the "real" subsystems.
"""

from __future__ import annotations

import random
import threading
from typing import Mapping, Sequence

from repro.access.source import SortedRandomSource, tie_break_order
from repro.access.types import ObjectId
from repro.core.query import AtomicQuery
from repro.subsystems.base import DEFAULT_RANKING_CACHE_CAPACITY, Subsystem
from repro.workloads.distributions import GradeDistribution, Uniform

__all__ = ["SyntheticSubsystem"]


class SyntheticSubsystem(Subsystem):
    """Serves attributes whose grades are fixed tables or random draws.

    Parameters
    ----------
    name:
        Subsystem label.
    tables:
        attribute -> {object -> grade}: explicit grade assignments.
    generated:
        attribute -> distribution: grades drawn once per (attribute,
        target) pair, lazily, from the seeded rng — so repeated
        evaluation of the same atomic query sees the same graded set,
        but different targets give fresh independent lists (the
        Section 5 independence model at the subsystem level).
    objects:
        The object population for generated attributes (required if
        only ``generated`` is given).
    cache_capacity:
        Distinct atomic queries whose materialised rankings the
        subsystem's :class:`~repro.subsystems.base.RankingCache`
        retains (``None`` = unbounded). Evictions are safe even for
        generated attributes: the drawn grades live in their own
        table, so a re-miss re-sorts the *same* graded set.
    """

    def __init__(
        self,
        name: str,
        tables: Mapping[str, Mapping[ObjectId, float]] | None = None,
        generated: Mapping[str, GradeDistribution] | None = None,
        objects: Sequence[ObjectId] | None = None,
        seed: int = 0,
        cache_capacity: int | None = DEFAULT_RANKING_CACHE_CAPACITY,
    ) -> None:
        self.name = name
        self.ranking_cache_capacity = cache_capacity
        self._tables = {
            attr: dict(grades) for attr, grades in (tables or {}).items()
        }
        self._generated = dict(generated or {})
        if not self._tables and not self._generated:
            raise ValueError(
                f"synthetic subsystem {name!r} needs tables or generators"
            )
        populations = {frozenset(t) for t in self._tables.values()}
        if objects is not None:
            populations.add(frozenset(objects))
        if not populations:
            raise ValueError(
                f"synthetic subsystem {name!r} has generated attributes "
                "but no object population; pass objects="
            )
        if len(populations) != 1:
            raise ValueError(
                f"attribute tables of {name!r} cover different object "
                "populations"
            )
        self._objects = next(iter(populations))
        # Population orders: a table's from its own iteration order, so
        # objects whose tie-break keys collide rank as they always have.
        self._populations = {
            attr: tie_break_order(table) for attr, table in self._tables.items()
        }
        self._generated_population = tie_break_order(self._objects)
        self._rng = random.Random(seed)
        self._cache: dict[tuple[str, object], dict[ObjectId, float]] = {}
        # Generated attributes draw from the one seeded rng; the lock
        # keeps concurrent first draws of *different* (attribute,
        # target) pairs from interleaving rng consumption (table-backed
        # attributes never take it). Note the drawn grades still depend
        # on draw *order*: identical across runs only when the draw
        # sequence is (e.g. single-threaded, or cache-warmed) the same.
        self._draw_lock = threading.Lock()

    def attributes(self) -> frozenset[str]:
        return frozenset(self._tables) | frozenset(self._generated)

    def object_ids(self) -> frozenset[ObjectId]:
        return frozenset(self._objects)

    def _grades_for(self, query: AtomicQuery) -> dict[ObjectId, float]:
        if query.attribute in self._tables:
            return self._tables[query.attribute]
        key = (query.attribute, query.target)
        with self._draw_lock:
            if key not in self._cache:
                dist = self._generated.get(query.attribute, Uniform())
                self._cache[key] = {
                    obj: dist.sample(self._rng) for obj in sorted(
                        self._objects, key=repr
                    )
                }
            return self._cache[key]

    def evaluate(self, query: AtomicQuery) -> SortedRandomSource:
        # The shared RankingCache plays ColumnarScoringDatabase's
        # share-the-ranking trick on the subsystem side: the descending
        # sort is paid once per distinct query and every later session
        # is an O(1) cursor over the cached columns.
        self.validate_query(query)
        population = self._populations.get(
            query.attribute, self._generated_population
        )

        def build() -> list[float]:
            grades = self._grades_for(query)
            return [grades[obj] for obj in population]

        return self.ranking_cache.source(
            f"{self.name}:{query.attribute}{query.op}{query.target!r}",
            query,
            build,
            population,
        )
