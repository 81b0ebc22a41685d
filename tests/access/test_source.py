"""Tests for the sorted/random access interface of Section 4."""

import pytest

from repro.access.cost import CostTracker
from repro.access.source import (
    InstrumentedSource,
    MaterializedSource,
    rank_items,
)
from repro.access.types import GradedItem
from repro.exceptions import ExhaustedSourceError, GradeRangeError, UnknownObjectError


class TestGradedItem:
    def test_unpacking(self):
        obj, grade = GradedItem("a", 0.5)
        assert obj == "a" and grade == 0.5

    def test_validates_grade(self):
        with pytest.raises(GradeRangeError):
            GradedItem("a", 1.5)

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.25, "high", None])
    def test_invalid_grade_error_names_the_item(self, bad):
        with pytest.raises(GradeRangeError, match=r"item 'photo-7'") as info:
            GradedItem("photo-7", bad)
        assert info.value.context == "item 'photo-7'"

    @pytest.mark.parametrize("grade", [0.0, -0.0, 0.5, 1.0, 1, True, 0])
    def test_valid_grades_are_kept_as_given(self, grade):
        item = GradedItem("a", grade)
        assert item.grade is grade


class TestRankItems:
    def test_descending_order(self):
        ranked = rank_items({"a": 0.1, "b": 0.9, "c": 0.5})
        assert [it.obj for it in ranked] == ["b", "c", "a"]

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.25, "high", None])
    def test_invalid_grade_error_names_the_object(self, bad):
        grades = {"a": 0.25, "photo-7": bad, 3: 1.0}
        with pytest.raises(GradeRangeError, match=r"object 'photo-7'") as info:
            rank_items(grades)
        assert info.value.context == "object 'photo-7'"
        with pytest.raises(GradeRangeError, match=r"object 'photo-7'"):
            rank_items(list(grades.items()))

    def test_grades_become_floats_reusing_float_objects(self):
        half = 0.5
        ranked = rank_items({"a": 1, "b": half, "c": False})
        assert [(it.obj, it.grade) for it in ranked] == [
            ("a", 1.0), ("b", 0.5), ("c", 0.0)
        ]
        assert all(type(it.grade) is float for it in ranked)
        assert ranked[1].grade is half

    def test_tie_break_deterministic(self):
        ranked = rank_items({"b": 0.5, "a": 0.5})
        assert [it.obj for it in ranked] == ["a", "b"]

    def test_from_pairs(self):
        ranked = rank_items([("x", 0.2), ("y", 0.8)])
        assert ranked[0].obj == "y"


class TestMaterializedSource:
    def test_sorted_access_streams_in_order(self):
        src = MaterializedSource("s", {"a": 0.1, "b": 0.9, "c": 0.5})
        assert src.next_sorted().obj == "b"
        assert src.next_sorted().obj == "c"
        assert src.position == 2
        assert not src.exhausted

    def test_exhaustion(self):
        src = MaterializedSource("s", {"a": 0.5})
        src.next_sorted()
        assert src.exhausted
        with pytest.raises(ExhaustedSourceError):
            src.next_sorted()

    def test_random_access(self):
        src = MaterializedSource("s", {"a": 0.5})
        assert src.random_access("a") == 0.5

    def test_random_access_unknown_object(self):
        src = MaterializedSource("s", {"a": 0.5})
        with pytest.raises(UnknownObjectError):
            src.random_access("zzz")

    def test_restart(self):
        src = MaterializedSource("s", {"a": 0.9, "b": 0.5})
        src.next_sorted()
        src.restart()
        assert src.position == 0
        assert src.next_sorted().obj == "a"

    def test_preranked_items_accepted(self):
        items = (GradedItem("x", 0.9), GradedItem("y", 0.4))
        src = MaterializedSource("s", items)
        assert src.next_sorted().obj == "x"

    def test_preranked_out_of_order_rejected(self):
        items = (GradedItem("x", 0.4), GradedItem("y", 0.9))
        with pytest.raises(ValueError, match="not sorted"):
            MaterializedSource("s", items)

    def test_duplicate_objects_rejected(self):
        items = (GradedItem("x", 0.9), GradedItem("x", 0.4))
        with pytest.raises(ValueError, match="duplicate"):
            MaterializedSource("s", items)

    def test_len(self):
        assert len(MaterializedSource("s", {"a": 0.5, "b": 0.2})) == 2

    def test_ranking_inspection(self):
        src = MaterializedSource("s", {"a": 0.5})
        assert src.ranking()[0] == GradedItem("a", 0.5)


class TestInstrumentedSource:
    def test_charges_sorted_access(self):
        tracker = CostTracker(2)
        src = InstrumentedSource(
            MaterializedSource("s", {"a": 0.5, "b": 0.2}), tracker, 1
        )
        src.next_sorted()
        assert tracker.snapshot().sorted_by_list == (0, 1)

    def test_charges_random_access(self):
        tracker = CostTracker(1)
        src = InstrumentedSource(
            MaterializedSource("s", {"a": 0.5}), tracker, 0
        )
        src.random_access("a")
        assert tracker.snapshot().random_by_list == (1,)

    def test_failed_sorted_access_not_charged(self):
        tracker = CostTracker(1)
        src = InstrumentedSource(
            MaterializedSource("s", {"a": 0.5}), tracker, 0
        )
        src.next_sorted()
        with pytest.raises(ExhaustedSourceError):
            src.next_sorted()
        assert tracker.snapshot().sorted_cost == 1

    def test_failed_random_access_not_charged(self):
        tracker = CostTracker(1)
        src = InstrumentedSource(
            MaterializedSource("s", {"a": 0.5}), tracker, 0
        )
        with pytest.raises(UnknownObjectError):
            src.random_access("zzz")
        assert tracker.snapshot().random_cost == 0

    def test_restart_does_not_erase_charges(self):
        """Re-reading after restart is a real access and is re-charged."""
        tracker = CostTracker(1)
        src = InstrumentedSource(
            MaterializedSource("s", {"a": 0.5}), tracker, 0
        )
        src.next_sorted()
        src.restart()
        src.next_sorted()
        assert tracker.snapshot().sorted_cost == 2

    def test_list_index_validated(self):
        tracker = CostTracker(1)
        with pytest.raises(ValueError):
            InstrumentedSource(
                MaterializedSource("s", {"a": 0.5}), tracker, 7
            )

    def test_delegates_len_and_position(self):
        tracker = CostTracker(1)
        inner = MaterializedSource("s", {"a": 0.5, "b": 0.1})
        src = InstrumentedSource(inner, tracker, 0)
        assert len(src) == 2
        src.next_sorted()
        assert src.position == 1
        assert inner.position == 1

