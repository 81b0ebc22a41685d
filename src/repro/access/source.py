"""The subsystem access interface of Section 4.

    "In response to a subquery … the subsystem will output the graded
    set consisting of all objects, one by one, along with their grades
    under the subquery, in sorted order based on grade, until Garlic
    tells the subsystem to stop. Then Garlic could later tell the
    subsystem to resume outputting the graded set where it left off.
    … We refer to such types of access as 'sorted access.'

    There is another way that we could expect Garlic to interact with
    the subsystem. Garlic could ask the subsystem the grade (with
    respect to a query) of any given object. We refer to this as
    'random access.'"

:class:`SortedRandomSource` is that interface; algorithms can reach
grades *only* through it, so the access accounting is airtight by
construction. :class:`MaterializedSource` backs it with an in-memory
ranking (scoring databases, test fixtures); subsystem adapters in
:mod:`repro.subsystems` provide lazily-evaluated implementations.

A ranking is held as :data:`~repro.access.types.RankedColumns` — the
objects and their grades as two parallel tuples in rank order — and a
batch of sorted accesses is delivered as slices of both: the "one by
one, along with their grades" of Section 4, read b at a time. A single
sorted access (``sorted_access_next``) is one bare ``(object, grade)``
pair.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Mapping, Sequence

import numpy as _np

from repro.access.cost import CostTracker
from repro.access.types import (
    GradedItem,
    ObjectId,
    RankedColumns,
    mint_item,
    mint_items,
)
from repro.core.grades import validate_grade
from repro.exceptions import ExhaustedSourceError, UnknownObjectError

__all__ = [
    "SortedRandomSource",
    "MaterializedSource",
    "InstrumentedSource",
    "StreamOnlySource",
    "UnbatchedSource",
    "checked_grades",
    "descending_order",
    "graded_population",
    "rank_items",
    "rank_population",
    "tie_break_key",
    "tie_break_order",
]


def tie_break_key(obj: ObjectId) -> tuple:
    """The deterministic tie-break key used wherever equal grades meet.

    Section 5 allows *any* skeleton consistent with a tied graded set;
    this is the library's one concrete choice: integer object ids sort
    numerically (object 2 before object 10 — not the lexicographic
    ``repr`` order that put 10 first), and everything else sorts by its
    ``repr``. The key is a plain tuple, computed once per item by every
    caller (decorate-sort-undecorate), so sorting never re-derives it
    inside a comparison.
    """
    if type(obj) is int:
        return (0, obj, "")
    return (1, 0, repr(obj))


def tie_break_order(objects: Iterable[ObjectId]) -> tuple[ObjectId, ...]:
    """``objects`` sorted by :func:`tie_break_key`: a *population order*.

    The sort is stable, so objects whose keys collide keep their
    iteration order. Grades listed in this order and sorted descending
    by a *stable* sort come out ranked exactly as :func:`rank_items`
    ranks them, ties included — the contract :func:`rank_population`
    relies on. Subsystems fix their population order once, at
    construction, and score every atom as a vector aligned with it.
    """
    return tuple(sorted(objects, key=tie_break_key))


def graded_population(
    grades: Mapping[ObjectId, float] | Iterable[tuple[ObjectId, float]],
) -> tuple[list[ObjectId], list[object]]:
    """A graded set's objects in :func:`tie_break_order`, with their
    grades aligned — the input :func:`rank_population` takes."""
    pairs = grades.items() if isinstance(grades, Mapping) else grades
    ordered = sorted(pairs, key=lambda pair: tie_break_key(pair[0]))
    return [obj for obj, _ in ordered], [grade for _, grade in ordered]


def checked_grades(
    objects: Sequence[ObjectId], grades: Sequence[object], context: str = "object"
):
    """``grades`` as floats in [0, 1]: ``(floats, column)``.

    ``floats`` is a list of Python floats — ``float()`` returns a float
    argument itself, so a scorer's float objects are reused rather than
    copied — and ``column`` the same values as a float64 array. The
    range and NaN checks run over the whole vector at once, with the
    predicate of :func:`validate_grade`; only when they fail does the
    scalar validator run, to raise the precise
    :class:`~repro.exceptions.GradeRangeError` naming
    ``f"{context} {obj!r}"`` for the first bad grade.
    """
    try:
        floats = list(map(float, grades))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        floats = None
    if floats is not None:
        column = _np.asarray(floats, dtype=_np.float64)
        if not (
            _np.isnan(column).any() or (column < 0.0).any() or (column > 1.0).any()
        ):
            return floats, column
    floats = [
        validate_grade(grade, context=f"{context} {obj!r}")
        for obj, grade in zip(objects, grades)
    ]
    return floats, _np.asarray(floats)


def descending_order(column):
    """Positions of ``column`` by descending grade: one stable argsort.

    Equal grades keep their positions' order, so a column listed in
    :func:`tie_break_order` breaks its ties by :func:`tie_break_key`.
    Returns an int array. The one sort behind :func:`rank_population`
    and :func:`~repro.access.columnar.rank_orders`.
    """
    return _np.argsort(-_np.asarray(column, dtype=_np.float64), kind="stable")


def rank_population(
    objects: Sequence[ObjectId], grades: Sequence[object]
) -> tuple[RankedColumns, dict[ObjectId, float]]:
    """Rank a population's grades for sorted and random access.

    ``objects`` lists the population in :func:`tie_break_order` and
    ``grades[j]`` is ``objects[j]``'s grade. One bulk validation
    (:func:`checked_grades`), one stable descending argsort
    (:func:`descending_order`), and both columns gathered in that
    order; the grades column and the grade map hold the same float
    objects. Returns ``((objects, grades), grade_map)``.
    """
    floats, column = checked_grades(objects, grades)
    order = descending_order(column).tolist()
    columns = (
        tuple(map(objects.__getitem__, order)),
        tuple(map(floats.__getitem__, order)),
    )
    return columns, dict(zip(objects, floats))


def rank_items(
    grades: Mapping[ObjectId, float] | Iterable[tuple[ObjectId, float]],
) -> tuple[GradedItem, ...]:
    """Sort (object, grade) pairs into a sorted-access ranking.

    Descending by grade; ties broken deterministically by
    :func:`tie_break_key` — one concrete choice of the "skeleton" a
    tied graded set is consistent with (Section 5 allows any).
    """
    (objects, ranked), _ = rank_population(*graded_population(grades))
    return mint_items(objects, ranked, range(len(objects)))


class SortedRandomSource(ABC):
    """One ranked list, reachable by sorted and random access only."""

    name: str = "source"

    @abstractmethod
    def __len__(self) -> int:
        """Total number of objects in the list."""

    @property
    @abstractmethod
    def position(self) -> int:
        """How many objects sorted access has delivered so far."""

    @abstractmethod
    def next_sorted(self) -> GradedItem:
        """Deliver the next object in descending grade order.

        Raises :class:`ExhaustedSourceError` past the end.
        """

    @abstractmethod
    def random_access(self, obj: ObjectId) -> float:
        """The grade of ``obj`` under this source's subquery.

        Raises :class:`UnknownObjectError` for foreign objects.
        """

    @abstractmethod
    def restart(self) -> None:
        """Reset the sorted-access cursor to the top of the list.

        Models re-issuing the subquery to the subsystem; any accesses
        after a restart are charged again (they are real accesses).
        """

    # ------------------------------------------------------------------
    # Batched access protocol
    #
    # Batches are an *implementation detail*, not a new kind of access:
    # a batch of b sorted (random) accesses has exactly the cost of b
    # unit accesses under the Section 5 model, and the instrumented
    # wrapper decomposes every batch into unit charges. The default
    # implementations below loop over the unit methods, so subsystem
    # adapters that only implement ``next_sorted``/``random_access``
    # keep working unchanged; in-memory backends override them with
    # slice/lookup fast paths.
    # ------------------------------------------------------------------

    def sorted_access_batch(self, count: int) -> RankedColumns:
        """Deliver up to ``count`` further objects under sorted access.

        Returns ``(objects, grades)``: two parallel tuples in rank
        order, ``grades[r]`` being ``objects[r]``'s grade. May deliver
        fewer than ``count`` objects: a source that pages over a wire
        ships at most one page per call. Exhaustion is signalled by
        empty columns, never by :class:`ExhaustedSourceError`.
        """
        if count < 0:
            raise ValueError(f"batch size must be non-negative, got {count}")
        objects: list[ObjectId] = []
        grades: list[float] = []
        for _ in range(count):
            if self.exhausted:
                break
            try:
                item = self.next_sorted()
            except ExhaustedSourceError:  # pragma: no cover - guarded above
                break
            objects.append(item.obj)
            grades.append(item.grade)
        return tuple(objects), tuple(grades)

    def sorted_access_next(self) -> tuple[ObjectId, float] | None:
        """Deliver the next object under sorted access as a bare pair.

        One unit sorted access, charged as one: ``(object, grade)``, or
        None once the list is exhausted (charged nothing). The read of
        algorithms whose stop test runs after every round (TA, NRA),
        which take exactly one object per list per round and so cannot
        batch; it mints no :class:`GradedItem` and builds no slices.
        The default is ``sorted_access_batch(1)`` unpacked, so paged
        sources and unit-only adapters deliver exactly what a batch of
        one delivers.
        """
        objects, grades = self.sorted_access_batch(1)
        if not objects:
            return None
        return objects[0], grades[0]

    def random_access_many(self, objs: Sequence[ObjectId]) -> list[float]:
        """The grades of ``objs``, in order, under this source's subquery.

        Raises :class:`UnknownObjectError` for foreign objects; callers
        should treat a failed batch as all-or-nothing.
        """
        return [self.random_access(obj) for obj in objs]

    @property
    def exhausted(self) -> bool:
        """True iff sorted access has delivered every object."""
        return self.position >= len(self)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"{self.position}/{len(self)}>"
        )


class MaterializedSource(SortedRandomSource):
    """A source backed by a fully materialised ranking.

    The ranking is kept as :data:`~repro.access.types.RankedColumns`
    beside a grade map for random access; batches are slices of the
    two columns, and :meth:`next_sorted` mints one item per delivery.

    Parameters
    ----------
    name:
        Label used in errors and reprs.
    ranking:
        The graded set in sorted order — either pre-ranked
        :class:`GradedItem` objects (must be non-increasing in grade)
        or any mapping/pairs, which are ranked with :func:`rank_items`.
    """

    def __init__(
        self,
        name: str,
        ranking: Sequence[GradedItem] | Mapping[ObjectId, float] | Iterable[tuple],
    ) -> None:
        self.name = name
        if isinstance(ranking, Sequence) and all(
            isinstance(it, GradedItem) for it in ranking
        ):
            for earlier, later in zip(ranking, ranking[1:]):
                if later.grade > earlier.grade:
                    raise ValueError(
                        f"ranking for {name!r} is not sorted: "
                        f"{earlier!r} precedes {later!r}"
                    )
            objects = tuple(it.obj for it in ranking)
            grades = tuple(it.grade for it in ranking)
            grade_map = dict(zip(objects, grades))
        else:
            (objects, grades), grade_map = rank_population(
                *graded_population(ranking)  # type: ignore[arg-type]
            )
        if len(grade_map) != len(objects):
            raise ValueError(f"ranking for {name!r} contains duplicate objects")
        self._objects = objects
        self._grades = grades
        self._grade_map = grade_map
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._objects)

    @property
    def position(self) -> int:
        return self._cursor

    def next_sorted(self) -> GradedItem:
        cursor = self._cursor
        if cursor >= len(self._objects):
            raise ExhaustedSourceError(self.name)
        self._cursor = cursor + 1
        return mint_item(self._objects[cursor], self._grades[cursor])

    def random_access(self, obj: ObjectId) -> float:
        try:
            return self._grade_map[obj]
        except KeyError:
            raise UnknownObjectError(obj, self.name) from None

    def sorted_access_batch(self, count: int) -> RankedColumns:
        if count < 0:
            raise ValueError(f"batch size must be non-negative, got {count}")
        start = self._cursor
        stop = start + count
        objects = self._objects[start:stop]
        self._cursor = start + len(objects)
        return objects, self._grades[start:stop]

    def sorted_access_next(self) -> tuple[ObjectId, float] | None:
        cursor = self._cursor
        if cursor >= len(self._objects):
            return None
        self._cursor = cursor + 1
        return self._objects[cursor], self._grades[cursor]

    def random_access_many(self, objs: Sequence[ObjectId]) -> list[float]:
        grades = self._grade_map
        try:
            return [grades[obj] for obj in objs]
        except KeyError:
            for obj in objs:
                if obj not in grades:
                    raise UnknownObjectError(obj, self.name) from None
            raise  # pragma: no cover - unreachable

    def restart(self) -> None:
        self._cursor = 0

    @classmethod
    def trusted(
        cls,
        name: str,
        columns: RankedColumns,
        grade_map: Mapping[ObjectId, float],
    ) -> "MaterializedSource":
        """A source over pre-validated shared state, minted in O(1).

        The stores and the ranking caches call this with the columns
        and grade map they built (and validated) once, so minting a
        fresh session does not re-sort, re-validate, or rebuild the
        grade dictionary. Callers guarantee ``columns`` is
        ``(objects, grades)`` with grades non-increasing, and that
        ``grade_map`` matches it.
        """
        source = cls.__new__(cls)
        source.name = name
        source._objects, source._grades = columns
        source._grade_map = grade_map
        source._cursor = 0
        return source

    def columns(self) -> RankedColumns:
        """The shared ``(objects, grades)`` columns of the ranking.

        Not part of the access interface — algorithms must not use it.
        """
        return self._objects, self._grades

    def ranking(self) -> tuple[GradedItem, ...]:
        """The full ranking as freshly minted items (for tests and
        ground-truth computation).

        Not part of the access interface — algorithms must not use it.
        """
        return mint_items(self._objects, self._grades, range(len(self._objects)))


class StreamOnlySource(SortedRandomSource):
    """A source whose random access capability is disabled.

    Models subsystems that can only stream ranked results (Section 4's
    footnote 5 assumes QBIC *can* do random accesses — this wrapper is
    the subsystem that cannot). Algorithms restricted to sorted access
    (B0, NRA, naive) run unchanged; anything attempting random access
    fails loudly instead of silently miscounting.
    """

    def __init__(self, inner: SortedRandomSource) -> None:
        self._inner = inner
        self.name = f"{inner.name} (stream-only)"

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def position(self) -> int:
        return self._inner.position

    def next_sorted(self) -> GradedItem:
        return self._inner.next_sorted()

    def sorted_access_batch(self, count: int) -> RankedColumns:
        return self._inner.sorted_access_batch(count)

    def sorted_access_next(self) -> tuple[ObjectId, float] | None:
        return self._inner.sorted_access_next()

    def random_access(self, obj: ObjectId) -> float:
        from repro.exceptions import SubsystemCapabilityError

        raise SubsystemCapabilityError(
            f"source {self.name!r} does not support random access"
        )

    def restart(self) -> None:
        self._inner.restart()


class InstrumentedSource(SortedRandomSource):
    """Wraps any source, charging every access to a shared tracker.

    ``list_index`` identifies which list this source is in the
    tracker's per-list accounting (Section 5 counts costs per list,
    e.g. "the top 100 objects from the first list and the top 20
    objects from the second list … sorted access cost 120").
    """

    def __init__(
        self, inner: SortedRandomSource, tracker: CostTracker, list_index: int
    ) -> None:
        if not 0 <= list_index < tracker.num_lists:
            raise ValueError(
                f"list index {list_index} out of range for tracker with "
                f"{tracker.num_lists} lists"
            )
        self._inner = inner
        self._tracker = tracker
        self._list_index = list_index
        self.name = inner.name

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def position(self) -> int:
        return self._inner.position

    def next_sorted(self) -> GradedItem:
        item = self._inner.next_sorted()
        # Charge only on success: an ExhaustedSourceError delivers no object.
        self._tracker.charge_sorted(self._list_index)
        return item

    def random_access(self, obj: ObjectId) -> float:
        grade = self._inner.random_access(obj)
        self._tracker.charge_random(self._list_index)
        return grade

    def sorted_access_batch(self, count: int) -> RankedColumns:
        batch = self._inner.sorted_access_batch(count)
        delivered = len(batch[0])
        if delivered:
            # One bulk charge — the tracker decomposes a batch of b
            # sorted accesses into b unit accesses (same cost model).
            self._tracker.charge_sorted(self._list_index, delivered)
        return batch

    def sorted_access_next(self) -> tuple[ObjectId, float] | None:
        pair = self._inner.sorted_access_next()
        if pair is not None:
            self._tracker.charge_sorted(self._list_index)
        return pair

    def random_access_many(self, objs: Sequence[ObjectId]) -> list[float]:
        grades = self._inner.random_access_many(objs)
        if grades:
            self._tracker.charge_random(self._list_index, len(grades))
        return grades

    def restart(self) -> None:
        self._inner.restart()


class UnbatchedSource(SortedRandomSource):
    """Hides a source's batch overrides, forcing the unit fallbacks.

    Every ``sorted_access_batch``/``random_access_many`` call on this
    wrapper decomposes into the same sequence of unit accesses the
    pre-batching implementations performed, because only the unit
    methods are delegated and the ABC defaults loop over them. Used by
    the parity tests and by the perf harness's reference ("legacy")
    path.
    """

    def __init__(self, inner: SortedRandomSource) -> None:
        self._inner = inner
        self.name = inner.name

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def position(self) -> int:
        return self._inner.position

    def next_sorted(self) -> GradedItem:
        return self._inner.next_sorted()

    def random_access(self, obj: ObjectId) -> float:
        return self._inner.random_access(obj)

    def restart(self) -> None:
        self._inner.restart()
