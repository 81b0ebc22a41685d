"""Scoring databases and skeletons: the formal model of Section 5.

    "We define a scoring database to be a function associating with
    each i (for i = 1, ..., m) a graded set, where the objects being
    graded are 1, ..., N. … We define a skeleton (on N objects) to be a
    function associating with each i … a permutation of 1, ..., N. A
    scoring database D is consistent with skeleton S if for each i, the
    ith permutation in S gives a sorting of the ith graded set of D (in
    descending order of grade)."

A :class:`ScoringDatabase` materialises the m graded sets; it can mint
fresh :class:`~repro.access.session.MiddlewareSession` objects for
algorithm runs, compute ground-truth answers for tests, and derive or
verify :class:`Skeleton` objects. Random generation under the paper's
independence model lives in :mod:`repro.workloads.skeletons`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.access.session import MiddlewareSession
from repro.access.source import (
    MaterializedSource,
    graded_population,
    rank_items,
    rank_population,
)
from repro.access.types import GradedItem, ObjectId, RankedColumns, mint_items
from repro.core.aggregation import AggregationFunction
from repro.core.graded_set import GradedSet
from repro.core.grades import validate_grade
from repro.exceptions import InconsistentSkeletonError

__all__ = ["Skeleton", "ScoringDatabase"]


@dataclass(frozen=True)
class Skeleton:
    """m permutations of the same object set (Section 5)."""

    permutations: tuple[tuple[ObjectId, ...], ...]

    def __post_init__(self) -> None:
        if not self.permutations:
            raise ValueError("a skeleton needs at least one permutation")
        base = frozenset(self.permutations[0])
        for i, perm in enumerate(self.permutations):
            if len(perm) != len(self.permutations[0]) or frozenset(perm) != base:
                raise ValueError(
                    f"permutation {i} is not a permutation of the same "
                    f"object set as permutation 0"
                )
            if len(set(perm)) != len(perm):
                raise ValueError(f"permutation {i} contains duplicates")

    @property
    def num_lists(self) -> int:
        return len(self.permutations)

    @property
    def num_objects(self) -> int:
        return len(self.permutations[0])

    @property
    def objects(self) -> frozenset[ObjectId]:
        return frozenset(self.permutations[0])

    @classmethod
    def random(
        cls,
        num_lists: int,
        objects: Sequence[ObjectId] | int,
        rng: random.Random,
    ) -> "Skeleton":
        """A uniformly random skeleton — the independence model.

        Section 5: independence of the atomic queries is formalised as
        "each of the m sorted lists contains the objects in random
        order (in other words, each permutation of 1, ..., N has equal
        probability), independent of the other lists."
        """
        if isinstance(objects, int):
            objects = list(range(1, objects + 1))
        perms = []
        for _ in range(num_lists):
            perm = list(objects)
            rng.shuffle(perm)
            perms.append(tuple(perm))
        return cls(tuple(perms))

    def prefix(self, list_index: int, depth: int) -> tuple[ObjectId, ...]:
        """X^i_tau: the first ``depth`` objects of list ``list_index``."""
        return self.permutations[list_index][:depth]

    def match_depth(self, k: int) -> int:
        """The least T such that the prefix intersection has >= k members.

        This is the quantity T of A0's sorted-access phase; both the
        upper bound (Theorem 5.3) and the lower bound (Lemma 6.2) are
        statements about its distribution.
        """
        n = self.num_objects
        if k > n:
            raise ValueError(f"k={k} exceeds N={n}")
        counts: dict[ObjectId, int] = {}
        matched = 0
        for depth in range(1, n + 1):
            for perm in self.permutations:
                obj = perm[depth - 1]
                counts[obj] = counts.get(obj, 0) + 1
                if counts[obj] == self.num_lists:
                    matched += 1
            if matched >= k:
                return depth
        return n

    def reversed_pair(self) -> "Skeleton":
        """For a single-list skeleton, the (pi, reverse(pi)) pair of §7.

        "the top object pi_Q(1) according to the permutation pi_Q is
        the bottom object pi_notQ(N) according to the permutation
        pi_notQ" — the extreme negative correlation of the hard query.
        """
        if self.num_lists != 1:
            raise ValueError("reversed_pair is defined on a 1-list skeleton")
        forward = self.permutations[0]
        return Skeleton((forward, tuple(reversed(forward))))


class ScoringDatabase:
    """m graded sets over a common population of N objects.

    Parameters
    ----------
    lists:
        One grade assignment per atomic query — mappings (or
        :class:`GradedSet` objects) from object to grade. All lists
        must grade exactly the same objects, per the formal model.
    """

    def __init__(
        self, lists: Sequence[Mapping[ObjectId, float] | GradedSet]
    ) -> None:
        if not lists:
            raise ValueError("a scoring database needs at least one list")
        normalised: list[dict[ObjectId, float]] = []
        for i, entry in enumerate(lists):
            mapping = entry.as_dict() if isinstance(entry, GradedSet) else dict(entry)
            for obj, g in mapping.items():
                mapping[obj] = validate_grade(g, context=f"list {i}, object {obj!r}")
            normalised.append(mapping)
        domain = frozenset(normalised[0])
        for i, mapping in enumerate(normalised):
            if frozenset(mapping) != domain:
                raise ValueError(
                    f"list {i} grades a different object set than list 0; "
                    "every list must grade all N objects (Section 5 model)"
                )
        if not domain:
            raise ValueError("a scoring database needs at least one object")
        self._lists = normalised
        self._objects = domain
        self._rankings: list[RankedColumns | None] = [None] * len(lists)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_skeleton(
        cls, skeleton: Skeleton, grade_rows: Sequence[Sequence[float]]
    ) -> "ScoringDatabase":
        """Assign grades along a skeleton's permutations.

        ``grade_rows[i]`` is a non-increasing grade sequence for list i
        (grade of the rank-1 object first). The result is consistent
        with ``skeleton`` by construction.
        """
        if len(grade_rows) != skeleton.num_lists:
            raise ValueError(
                f"{skeleton.num_lists} permutations but {len(grade_rows)} grade rows"
            )
        lists = []
        for perm, row in zip(skeleton.permutations, grade_rows):
            if len(row) != len(perm):
                raise ValueError("grade row length must equal N")
            for earlier, later in zip(row, row[1:]):
                if later > earlier:
                    raise InconsistentSkeletonError(
                        "grade rows must be non-increasing to be consistent "
                        "with the skeleton"
                    )
            lists.append(dict(zip(perm, row)))
        return cls(lists)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_lists(self) -> int:
        return len(self._lists)

    @property
    def num_objects(self) -> int:
        return len(self._objects)

    @property
    def objects(self) -> frozenset[ObjectId]:
        return self._objects

    def grade(self, list_index: int, obj: ObjectId) -> float:
        """mu_Ai(obj) — direct lookup (ground truth, not an access)."""
        return self._lists[list_index][obj]

    def graded_set(self, list_index: int) -> GradedSet:
        """List ``i`` as a :class:`GradedSet`."""
        return GradedSet(self._lists[list_index])

    def ranking(self, list_index: int) -> tuple[GradedItem, ...]:
        """List ``i`` sorted for sorted access (deterministic tie-break),
        as freshly minted items over the cached ranking columns."""
        objects, grades = self._ranked_columns(list_index)
        return mint_items(objects, grades, range(len(objects)))

    def _ranked_columns(self, list_index: int) -> RankedColumns:
        """List ``i``'s ``(objects, grades)`` ranking columns, ranked on
        first use and shared by every later session."""
        cached = self._rankings[list_index]
        if cached is None:
            cached = rank_population(*graded_population(self._lists[list_index]))[0]
            self._rankings[list_index] = cached
        return cached

    # ------------------------------------------------------------------
    # Skeletons
    # ------------------------------------------------------------------

    def skeleton(self) -> Skeleton:
        """The skeleton this database's rankings realise."""
        return Skeleton(
            tuple(self._ranked_columns(i)[0] for i in range(self.num_lists))
        )

    def consistent_with(self, skeleton: Skeleton) -> bool:
        """Section 5 consistency: each permutation sorts the graded set."""
        if skeleton.num_lists != self.num_lists:
            return False
        if skeleton.objects != self._objects:
            return False
        for i, perm in enumerate(skeleton.permutations):
            grades = [self._lists[i][obj] for obj in perm]
            if any(later > earlier for earlier, later in zip(grades, grades[1:])):
                return False
        return True

    def has_ties(self) -> bool:
        """True iff some list gives two objects the same grade."""
        return any(
            len(set(mapping.values())) != len(mapping) for mapping in self._lists
        )

    # ------------------------------------------------------------------
    # Sessions and ground truth
    # ------------------------------------------------------------------

    def session(self) -> MiddlewareSession:
        """A fresh instrumented session over this database's lists.

        Each source is an O(1) cursor over the list's cached ranking
        columns, with the list's own mapping as its grade map.
        """
        raw = [
            MaterializedSource.trusted(
                f"list-{i}", self._ranked_columns(i), self._lists[i]
            )
            for i in range(self.num_lists)
        ]
        return MiddlewareSession.over_sources(raw, num_objects=self.num_objects)

    def overall_grades(self, aggregation: AggregationFunction) -> GradedSet:
        """Ground-truth mu_Q for every object (bypasses access accounting).

        For tests and oracle comparisons only — algorithms must go
        through a session.
        """
        return GradedSet(
            {
                obj: aggregation(*(lst[obj] for lst in self._lists))
                for obj in self._objects
            }
        )

    def true_top_k(
        self, aggregation: AggregationFunction, k: int
    ) -> tuple[GradedItem, ...]:
        """Ground-truth top-k answers (deterministic tie-break)."""
        ranked = rank_items(self.overall_grades(aggregation).as_dict())
        return ranked[:k]

    def __repr__(self) -> str:
        return (
            f"ScoringDatabase(m={self.num_lists}, N={self.num_objects}, "
            f"ties={self.has_ties()})"
        )


def prefix_intersection_size(
    skeleton: Skeleton, depth: int
) -> int:
    """|intersection over i of X^i_depth| — the quantity Lemma 5.1 bounds."""
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    sets: Iterable[frozenset] = (
        frozenset(perm[:depth]) for perm in skeleton.permutations
    )
    result: frozenset | None = None
    for s in sets:
        result = s if result is None else (result & s)
    assert result is not None
    return len(result)
