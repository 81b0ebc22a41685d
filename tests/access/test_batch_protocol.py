"""Tests for the batched access protocol on SortedRandomSource.

Batches are an implementation detail of the access layer: a batch of b
sorted (random) accesses must deliver exactly what b unit accesses
deliver and charge exactly what b unit accesses charge.
"""

import pytest

from repro.access.cost import CostTracker
from repro.access.source import (
    InstrumentedSource,
    MaterializedSource,
    SortedRandomSource,
    StreamOnlySource,
    UnbatchedSource,
    rank_items,
    tie_break_key,
)
from repro.exceptions import SubsystemCapabilityError, UnknownObjectError

GRADES = {"a": 0.9, "b": 0.7, "c": 0.5, "d": 0.3, "e": 0.1}


class UnitOnlySource(SortedRandomSource):
    """A minimal adapter implementing only the unit methods."""

    def __init__(self):
        self._inner = MaterializedSource("unit", GRADES)
        self.name = "unit"

    def __len__(self):
        return len(self._inner)

    @property
    def position(self):
        return self._inner.position

    def next_sorted(self):
        return self._inner.next_sorted()

    def random_access(self, obj):
        return self._inner.random_access(obj)

    def restart(self):
        self._inner.restart()


@pytest.fixture(params=["materialized", "unit-only", "unbatched"])
def source(request):
    if request.param == "materialized":
        return MaterializedSource("s", GRADES)
    if request.param == "unit-only":
        return UnitOnlySource()
    return UnbatchedSource(MaterializedSource("s", GRADES))


class TestSortedAccessBatch:
    def test_batch_equals_unit_sequence(self, source):
        reference = MaterializedSource("ref", GRADES)
        expected = [reference.next_sorted() for _ in range(5)]
        head_objects, head_grades = source.sorted_access_batch(2)
        tail_objects, tail_grades = source.sorted_access_batch(3)
        assert head_objects + tail_objects == tuple(it.obj for it in expected)
        assert head_grades + tail_grades == tuple(it.grade for it in expected)

    def test_advances_position(self, source):
        source.sorted_access_batch(3)
        assert source.position == 3

    def test_short_batch_at_exhaustion(self, source):
        objects, grades = source.sorted_access_batch(4)
        assert len(objects) == len(grades) == 4
        objects, grades = source.sorted_access_batch(10)
        assert (objects, grades) == (("e",), (0.1,))
        assert source.exhausted

    def test_empty_batch_after_exhaustion(self, source):
        source.sorted_access_batch(99)
        assert source.sorted_access_batch(5) == ((), ())

    def test_zero_count(self, source):
        assert source.sorted_access_batch(0) == ((), ())
        assert source.position == 0

    def test_negative_count_rejected(self, source):
        with pytest.raises(ValueError):
            source.sorted_access_batch(-1)

    def test_restart_resets_batching(self, source):
        first = list(source.sorted_access_batch(2))
        source.restart()
        assert list(source.sorted_access_batch(2)) == first


class TestSortedAccessNext:
    """The pair access: one unit sorted access, delivered as a bare
    ``(object, grade)`` pair and charged as one."""

    @pytest.fixture(params=["bare", "stream-only", "instrumented"])
    def wrapped(self, request, source):
        tracker = CostTracker(2)
        if request.param == "stream-only":
            source = StreamOnlySource(source)
        elif request.param == "instrumented":
            source = InstrumentedSource(source, tracker, 1)
        return source, tracker

    def test_pairs_equal_unit_sequence(self, wrapped):
        source, _ = wrapped
        reference = MaterializedSource("ref", GRADES)
        expected = [reference.next_sorted() for _ in range(5)]
        pairs = [source.sorted_access_next() for _ in range(5)]
        assert pairs == [(it.obj, it.grade) for it in expected]

    def test_none_at_exhaustion_charges_nothing(self, wrapped):
        source, tracker = wrapped
        for _ in range(5):
            assert source.sorted_access_next() is not None
        charged = tracker.snapshot()
        assert source.sorted_access_next() is None
        assert source.sorted_access_next() is None
        assert source.exhausted
        assert tracker.snapshot() == charged

    def test_each_pair_charges_one_sorted_access(self, source):
        tracker = CostTracker(2)
        instrumented = InstrumentedSource(source, tracker, 1)
        for depth in range(1, 6):
            instrumented.sorted_access_next()
            stats = tracker.snapshot()
            assert stats.sorted_by_list == (0, depth)
            assert stats.random_by_list == (0, 0)

    def test_shares_the_batch_cursor(self, wrapped):
        source, _ = wrapped
        assert source.sorted_access_next() == ("a", 0.9)
        assert source.position == 1
        assert source.sorted_access_batch(2) == (("b", "c"), (0.7, 0.5))
        assert source.sorted_access_next() == ("d", 0.3)
        assert source.position == 4
        assert source.sorted_access_batch(5) == (("e",), (0.1,))
        assert source.sorted_access_next() is None
        assert source.position == 5

    def test_restart_rewinds_pairs(self, wrapped):
        source, _ = wrapped
        first = source.sorted_access_next()
        source.restart()
        assert source.sorted_access_next() == first


class TestRandomAccessMany:
    def test_matches_unit_lookups(self, source):
        objs = ["c", "a", "e"]
        assert source.random_access_many(objs) == [
            GRADES["c"],
            GRADES["a"],
            GRADES["e"],
        ]

    def test_empty(self, source):
        assert source.random_access_many([]) == []

    def test_unknown_object(self, source):
        with pytest.raises(UnknownObjectError):
            source.random_access_many(["a", "zzz"])


class TestInstrumentedCharging:
    def make(self):
        tracker = CostTracker(2)
        s0 = InstrumentedSource(MaterializedSource("s0", GRADES), tracker, 0)
        s1 = InstrumentedSource(MaterializedSource("s1", GRADES), tracker, 1)
        return tracker, s0, s1

    def test_batch_charges_unit_equivalent(self):
        tracker, s0, s1 = self.make()
        s0.sorted_access_batch(3)
        s1.sorted_access_batch(2)
        s1.random_access_many(["a", "b", "c"])
        stats = tracker.snapshot()
        assert stats.sorted_by_list == (3, 2)
        assert stats.random_by_list == (0, 3)

    def test_short_batch_charges_what_was_delivered(self):
        tracker, s0, _ = self.make()
        s0.sorted_access_batch(99)
        assert tracker.snapshot().sorted_by_list == (5, 0)

    def test_empty_batch_charges_nothing(self):
        tracker, s0, _ = self.make()
        s0.sorted_access_batch(99)
        s0.sorted_access_batch(5)
        s0.random_access_many([])
        stats = tracker.snapshot()
        assert stats.sorted_by_list == (5, 0)
        assert stats.random_by_list == (0, 0)

    def test_mixed_unit_and_batch_counts_add(self):
        tracker, s0, _ = self.make()
        s0.next_sorted()
        s0.sorted_access_batch(2)
        s0.random_access("a")
        s0.random_access_many(["b", "c"])
        stats = tracker.snapshot()
        assert stats.sorted_by_list == (3, 0)
        assert stats.random_by_list == (3, 0)


class TestStreamOnly:
    def test_sorted_batches_pass_through(self):
        source = StreamOnlySource(MaterializedSource("s", GRADES))
        assert source.sorted_access_batch(2) == (("a", "b"), (0.9, 0.7))

    def test_random_access_many_still_refused(self):
        source = StreamOnlySource(MaterializedSource("s", GRADES))
        with pytest.raises(SubsystemCapabilityError):
            source.random_access_many(["a"])


class TestTrustedMint:
    def test_trusted_source_behaves_like_validated(self):
        items = rank_items(GRADES)
        columns = (
            tuple(it.obj for it in items),
            tuple(it.grade for it in items),
        )
        grades = {it.obj: it.grade for it in items}
        trusted = MaterializedSource.trusted("t", columns, grades)
        plain = MaterializedSource("p", GRADES)
        assert trusted.sorted_access_batch(5) == plain.sorted_access_batch(5)
        assert trusted.sorted_access_batch(5) == ((), ())
        assert trusted.random_access("d") == plain.random_access("d")
        assert len(trusted) == len(plain)


class TestTieBreakKey:
    def test_integers_sort_numerically(self):
        ranked = rank_items({10: 0.5, 2: 0.5, 1: 0.5})
        assert [it.obj for it in ranked] == [1, 2, 10]

    def test_non_integers_sort_by_repr(self):
        ranked = rank_items({"b": 0.5, "a": 0.5})
        assert [it.obj for it in ranked] == ["a", "b"]

    def test_keys_are_comparable_across_types(self):
        assert sorted(
            [tie_break_key("x"), tie_break_key(3), tie_break_key((1, 2))]
        )[0] == tie_break_key(3)

    def test_bool_not_treated_as_int(self):
        # bools are crisp grades' object ids only in degenerate tests;
        # they take the repr branch so True/False order deterministically.
        assert tie_break_key(True)[0] == 1


class TestUnbatchedWrapper:
    def test_forces_unit_fallback_counts(self):
        tracker = CostTracker(1)
        source = InstrumentedSource(
            UnbatchedSource(MaterializedSource("s", GRADES)), tracker, 0
        )
        objects, grades = source.sorted_access_batch(3)
        assert objects == ("a", "b", "c")
        assert grades == (0.9, 0.7, 0.5)
        assert tracker.snapshot().sorted_by_list == (3,)

    def test_item_identity_with_batched_path(self):
        plain = MaterializedSource("s", GRADES)
        wrapped = UnbatchedSource(MaterializedSource("s", GRADES))
        assert list(plain.sorted_access_batch(5)) == list(
            wrapped.sorted_access_batch(5)
        )
