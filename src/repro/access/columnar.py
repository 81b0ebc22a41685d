"""Columnar scoring databases: the in-memory fast path.

:class:`~repro.access.scoring_database.ScoringDatabase` stores each of
the m graded sets as a ``dict[ObjectId, float]``; it ranks each list
once and mints sessions over those ranking columns with the list's own
mapping as the grade map, but its grades stay boxed Python floats
keyed by arbitrary objects, so bulk ground truth is one Python call
per object.

:class:`ColumnarScoringDatabase` stores the same formal object
(Section 5's function from list index to graded set) in columnar form:

* object ids are **interned** once into a dense ``0..N-1`` index;
* each list's grades live in one contiguous float64 numpy array,
  indexed by interned id;
* each list's descending rank order (the skeleton permutation realised
  by the grades, ties broken by
  :func:`~repro.access.source.tie_break_key` exactly as
  :func:`~repro.access.source.rank_items` breaks them) is computed
  **once** and shared, by the same stable descending argsort over the
  population's tie-break order that ranks a subsystem's graded set
  (:func:`rank_orders`).

Sessions are minted in O(m): each source is a cursor over the shared,
pre-built ranking columns (the objects and their grades as two
parallel tuples in rank order) and grade map
(``MaterializedSource.trusted``), so repeated runs — the benchmark
regime — pay for accesses, not for re-sorting. Access-count semantics
are untouched: the sources speak the same sorted/random (and batched)
protocol through the same instrumented wrappers.

The numpy columns additionally feed the *computation* phase:
:meth:`ColumnarScoringDatabase.grades_matrix` gathers any subset of
objects into an (m, n) matrix in one shot, and
:meth:`overall_grades` / :meth:`true_top_k` score it through the
vectorized kernels of :mod:`repro.core.kernels` — ground truth at C
speed, still outside the access accounting.

**Concurrency contract.** A columnar database is a *shared read-only
store*: after ``__init__`` returns, its columns, interned index and
rank orders never change (the numpy arrays are marked non-writeable to
enforce it), so any number of threads may mint sessions and read
ground truth concurrently. All mutable state — sorted cursors, cost
trackers — lives in the per-query :class:`MiddlewareSession` objects
:meth:`session` mints, which are single-consumer and must not be
shared between threads. The only writes after construction are the
lazy, idempotent memoisations of each list's ranking columns and grade
map (:meth:`_shared`), which are double-checked under an internal
lock; once warm, minting a session is lock-free O(m).
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

import numpy as _np

from repro.access.session import MiddlewareSession
from repro.access.source import (
    MaterializedSource,
    checked_grades,
    descending_order,
    tie_break_key,
)
from repro.access.types import GradedItem, ObjectId, RankedColumns, mint_items
from repro.core.aggregation import AggregationFunction
from repro.core.graded_set import GradedSet
from repro.core.kernels import evaluate_columns

__all__ = ["ColumnarScoringDatabase", "rank_orders"]


def rank_orders(objects: tuple[ObjectId, ...], columns):
    """Descending rank order per column, as interned-id permutations.

    The one tie-break (:func:`~repro.access.source.tie_break_key`)
    realised as index permutations: the objects' population order
    (:func:`~repro.access.source.tie_break_order`, as positions) is
    computed once, and each column, gathered into that order, takes
    the one stable descending argsort of
    :func:`~repro.access.source.descending_order` — the sort behind
    :func:`~repro.access.source.rank_items`, so the permutation is the
    one it produces. When every object id is a plain int,
    ``tie_break_key`` reduces to numeric order and the population order
    is a stable numpy argsort of the ids; mixed or non-integer
    populations sort by key. Shared by the full-store constructor and
    the shard partitioner (a shard's order is exactly the restriction
    of the global order to the shard's objects, because the sort key
    is a total order).
    """
    population = _population_positions(objects)
    return [
        population[descending_order(_np.asarray(column)[population])]
        for column in columns
    ]


def _population_positions(objects: tuple[ObjectId, ...]):
    """The positions of ``objects`` in tie-break order (stable)."""
    if all(type(obj) is int for obj in objects):
        try:
            ids = _np.asarray(objects, dtype=_np.int64)
        except OverflowError:
            # Arbitrary-precision ids (beyond int64) keep the
            # key-based sort below — same ordering, Python speed.
            ids = None
        if ids is not None:
            return _np.argsort(ids, kind="stable")
    tie_keys = [tie_break_key(obj) for obj in objects]
    positions = sorted(range(len(objects)), key=tie_keys.__getitem__)
    return _np.asarray(positions, dtype=_np.intp)


def _validated_column(
    mapping: Mapping[ObjectId, float],
    objects: tuple[ObjectId, ...],
    list_index: int,
):
    """One list's grades as a float64 column in interned-id order.

    The bulk check of :func:`~repro.access.source.checked_grades`: a
    whole column converted and range-checked at once (same predicate
    as :func:`~repro.core.grades.validate_grade`), with the scalar
    validator producing the precise per-object error only on failure.
    """
    _floats, column = checked_grades(
        objects,
        [mapping[obj] for obj in objects],
        context=f"list {list_index}, object",
    )
    return column


class ColumnarScoringDatabase:
    """m graded sets over N objects, stored as float columns.

    Duck-type compatible with the subset of
    :class:`~repro.access.scoring_database.ScoringDatabase` the engine
    and benchmarks rely on (``session()``, ``overall_grades``,
    ``true_top_k``, ``ranking``, dimensions), and produces rankings
    identical to it item for item — the columnar layout is purely a
    representation change.

    Parameters
    ----------
    lists:
        One grade assignment per atomic query — mappings (or
        :class:`~repro.core.graded_set.GradedSet` objects) from object
        to grade. All lists must grade exactly the same objects.
    """

    def __init__(
        self, lists: Sequence[Mapping[ObjectId, float] | GradedSet]
    ) -> None:
        if not lists:
            raise ValueError("a scoring database needs at least one list")
        first = lists[0]
        first_map = first.as_dict() if isinstance(first, GradedSet) else first
        # Intern: index position is the object's dense integer id.
        objects = tuple(first_map)
        if not objects:
            raise ValueError("a scoring database needs at least one object")
        index = {obj: idx for idx, obj in enumerate(objects)}

        columns = []
        for i, entry in enumerate(lists):
            mapping = entry.as_dict() if isinstance(entry, GradedSet) else entry
            if len(mapping) != len(objects) or any(
                obj not in index for obj in mapping
            ):
                raise ValueError(
                    f"list {i} grades a different object set than list 0; "
                    "every list must grade all N objects (Section 5 model)"
                )
            columns.append(_validated_column(mapping, objects, i))

        self._objects = objects
        self._index = index
        self._columns = columns
        self._orders = self._rank_orders()
        # Enforce the shared-read-only contract: sessions and
        # ground-truth readers in any thread see frozen columns.
        for arr in (*self._columns, *self._orders):
            arr.flags.writeable = False
        # Lazy shared per-list state minted sessions slice into. The
        # builds are idempotent (pure functions of the frozen columns)
        # and double-checked under the lock, so concurrent first mints
        # neither duplicate work nor observe partial state.
        self._mint_lock = threading.Lock()
        self._shared_lists: list[
            tuple[RankedColumns, dict[ObjectId, float]] | None
        ] = [None] * len(columns)

    def _rank_orders(self):
        return rank_orders(self._objects, self._columns)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_frozen_arrays(
        cls, objects: tuple[ObjectId, ...], columns, orders
    ) -> "ColumnarScoringDatabase":
        """Wrap pre-built frozen columns without re-validating them.

        The trusted constructor for shard attach: ``columns`` are m
        already-validated float64 grade columns and ``orders`` their
        descending rank permutations (as :func:`rank_orders` would
        build them), typically views over a shared-memory segment. The
        caller vouches for validity and for the shared-read-only
        contract — the arrays are re-marked non-writeable here, but
        no grades are range-checked and no orders recomputed, so attach
        is O(m), not O(N log N).
        """
        if not columns or len(orders) != len(columns):
            raise ValueError(
                "from_frozen_arrays needs one order per column "
                f"(got {len(columns)} columns, {len(orders)} orders)"
            )
        if not objects:
            raise ValueError("a scoring database needs at least one object")
        self = cls.__new__(cls)
        self._objects = tuple(objects)
        self._index = {obj: idx for idx, obj in enumerate(self._objects)}
        self._columns = list(columns)
        self._orders = list(orders)
        for arr in (*self._columns, *self._orders):
            arr.flags.writeable = False
        self._mint_lock = threading.Lock()
        self._shared_lists = [None] * len(self._columns)
        return self

    @classmethod
    def from_scoring_database(cls, db) -> "ColumnarScoringDatabase":
        """Columnarise an existing (row-oriented) scoring database."""
        return cls([db.graded_set(i).as_dict() for i in range(db.num_lists)])

    @classmethod
    def from_skeleton(
        cls, skeleton, grade_rows: Sequence[Sequence[float]]
    ) -> "ColumnarScoringDatabase":
        """Assign grades along a skeleton's permutations (see
        :meth:`ScoringDatabase.from_skeleton`); columnar from the start."""
        from repro.access.scoring_database import ScoringDatabase

        return cls.from_scoring_database(
            ScoringDatabase.from_skeleton(skeleton, grade_rows)
        )

    # ------------------------------------------------------------------
    # Dimensions and direct lookups
    # ------------------------------------------------------------------

    @property
    def num_lists(self) -> int:
        return len(self._columns)

    @property
    def num_objects(self) -> int:
        return len(self._objects)

    @property
    def objects(self) -> frozenset[ObjectId]:
        return frozenset(self._objects)

    @property
    def interned_objects(self) -> tuple[ObjectId, ...]:
        """All object ids, in interned (dense-index) order.

        The ordered counterpart of :attr:`objects`; position ``j`` in
        every grade column and :meth:`grades_matrix` belongs to
        ``interned_objects[j]``. The shard partitioner slices this
        axis.
        """
        return self._objects

    def grade(self, list_index: int, obj: ObjectId) -> float:
        """mu_Ai(obj) — direct lookup (ground truth, not an access)."""
        grade = self._columns[list_index][self._index[obj]]
        return float(grade)

    def graded_set(self, list_index: int) -> GradedSet:
        """List ``i`` as a :class:`GradedSet`."""
        column = self._columns[list_index]
        return GradedSet(dict(zip(self._objects, column.tolist())))

    def ranking(self, list_index: int) -> tuple[GradedItem, ...]:
        """List ``i`` sorted for sorted access, as freshly minted items
        over the shared ranking columns."""
        objects, grades = self._shared(list_index)[0]
        return mint_items(objects, grades, range(len(objects)))

    def _shared(
        self, list_index: int
    ) -> tuple[RankedColumns, dict[ObjectId, float]]:
        """List ``i``'s ranking columns and grade map; built once, then
        shared by every session. Both hold the same float objects."""
        cached = self._shared_lists[list_index]
        if cached is None:
            with self._mint_lock:
                cached = self._shared_lists[list_index]
                if cached is None:
                    # The column was validated at construction.
                    grades = self._columns[list_index].tolist()
                    order = self._orders[list_index].tolist()
                    columns = (
                        tuple(map(self._objects.__getitem__, order)),
                        tuple(map(grades.__getitem__, order)),
                    )
                    cached = (columns, dict(zip(self._objects, grades)))
                    self._shared_lists[list_index] = cached
        return cached

    # ------------------------------------------------------------------
    # Bulk gather
    # ------------------------------------------------------------------

    def grades_matrix(self, objs: Sequence[ObjectId] | None = None):
        """The (m, n) grade matrix for ``objs`` (all objects if None).

        Column j of the result holds ``objs[j]``'s grades across the m
        lists, gathered with one fancy-index per list — the bulk
        counterpart of :meth:`grade`, and like it *ground truth*: the
        matrix bypasses sources entirely, so reading it is not an
        access.

        Raises :class:`KeyError` for objects this database does not
        grade (same contract as a plain dict lookup).
        """
        if objs is None:
            return _np.vstack(self._columns)
        index = self._index
        gather = _np.asarray([index[obj] for obj in objs], dtype=_np.intp)
        return _np.vstack([column[gather] for column in self._columns])

    # ------------------------------------------------------------------
    # Sessions and ground truth
    # ------------------------------------------------------------------

    def session(self) -> MiddlewareSession:
        """A fresh instrumented session, minted without re-sorting.

        Every source shares the database's pre-built ranking columns
        and grade map; only the per-session cursor and cost tracker are
        new, so minting is O(m) instead of O(N * m). Minting is safe
        from any thread (lock-free once the shared ranking is warm);
        the returned session itself is single-consumer — give each
        concurrent query its own.
        """
        raw = [
            MaterializedSource.trusted(f"list-{i}", *self._shared(i))
            for i in range(self.num_lists)
        ]
        return MiddlewareSession.over_sources(raw, num_objects=self.num_objects)

    def _all_scores(self, aggregation: AggregationFunction) -> list[float]:
        """Every object's overall grade, in interned order (vectorized)."""
        return evaluate_columns(
            aggregation, self.grades_matrix(), self.num_objects
        )

    def overall_grades(self, aggregation: AggregationFunction) -> GradedSet:
        """Ground-truth mu_Q for every object (bypasses access accounting)."""
        return GradedSet(dict(zip(self._objects, self._all_scores(aggregation))))

    def true_top_k(
        self, aggregation: AggregationFunction, k: int
    ) -> tuple[GradedItem, ...]:
        """Ground-truth top-k answers (deterministic tie-break)."""
        from repro.algorithms.base import top_k_of

        return top_k_of(
            list(zip(self._objects, self._all_scores(aggregation))), k
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarScoringDatabase(m={self.num_lists}, "
            f"N={self.num_objects})"
        )
