"""Shared value types for the access layer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.grades import validate_grade

ObjectId = Hashable

__all__ = ["ObjectId", "GradedItem", "RankedColumns", "mint_item", "mint_items"]


@dataclass(frozen=True, slots=True)
class GradedItem:
    """One (object, grade) pair as delivered by a subsystem.

    This is the unit of *sorted access* (Section 4): "the subsystem
    will output the graded set consisting of all objects, one by one,
    along with their grades under the subquery, in sorted order based
    on grade". Minted once per access on the hot path, hence
    ``slots=True`` (no per-instance ``__dict__``).
    """

    obj: ObjectId
    grade: float

    def __post_init__(self) -> None:
        grade = self.grade
        # A float in [0, 1] is valid as it stands (NaN fails the
        # chained comparison); anything else takes the full validator,
        # whose error context is only formatted on this slow path.
        if type(grade) is not float or not 0.0 <= grade <= 1.0:
            validate_grade(grade, context=f"item {self.obj!r}")

    def __iter__(self):
        """Allow ``obj, grade = item`` unpacking."""
        return iter((self.obj, self.grade))

    def __repr__(self) -> str:
        return f"({self.obj!r}, {self.grade:.4g})"


#: A ranking as two parallel tuples in rank order: ``(objects, grades)``,
#: ``grades[r]`` being ``objects[r]``'s grade, non-increasing. This is
#: how rankings are shared (ranking caches, stores, sources) and what
#: ``sorted_access_batch`` delivers: a tuple holding only atoms (str,
#: int, float) is untracked by the cyclic garbage collector, where a
#: tuple of N items is N + 1 objects it must traverse.
RankedColumns = tuple[tuple[ObjectId, ...], tuple[float, ...]]

_new = object.__new__
# The slot descriptors store a field directly, past the frozen
# dataclass's ``__setattr__`` guard and its ``__post_init__`` check.
_set_obj = GradedItem.obj.__set__  # type: ignore[attr-defined]
_set_grade = GradedItem.grade.__set__  # type: ignore[attr-defined]


def mint_item(obj: ObjectId, grade: float) -> GradedItem:
    """``GradedItem(obj, grade)`` for a grade already validated as a
    float in [0, 1] — minted without re-running the per-item check."""
    item = _new(GradedItem)
    _set_obj(item, obj)
    _set_grade(item, grade)
    return item


def mint_items(
    objects: Sequence[ObjectId], grades: Sequence[float], order: Sequence[int]
) -> tuple[GradedItem, ...]:
    """``GradedItem(objects[j], grades[j])`` for each ``j`` in ``order``.

    For grades the caller has already validated as floats in [0, 1]
    (the bulk ranking path checks a whole population at once), so each
    item is minted without running its per-item check again.
    """
    items = []
    append = items.append
    for j in order:
        item = _new(GradedItem)
        _set_obj(item, objects[j])
        _set_grade(item, grades[j])
        append(item)
    return tuple(items)
