"""Partitioning invariants: strided object split, local order =
restriction of the global order, self-describing attach, backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.access import ColumnarScoringDatabase
from repro.core.tnorms import MINIMUM
from repro.exceptions import ShardingError
from repro.sharding.partition import (
    ShardSpec,
    attach_store,
    partition_columnar,
)
from repro.workloads.skeletons import independent_database


def columnar(m=3, n=120, seed=5) -> ColumnarScoringDatabase:
    return ColumnarScoringDatabase.from_scoring_database(
        independent_database(m, n, seed=seed)
    )


def read_attached(spec, fn):
    """Attach ``spec``, apply ``fn`` to the store, detach cleanly.

    ``fn`` must return plain data: the store's columns are views into
    the segment, and the segment can only close once every view is
    dropped (hence the ``del`` before ``close``).
    """
    segment, store = attach_store(spec)
    try:
        return fn(store)
    finally:
        del store
        segment.close()


def release(segments) -> None:
    for segment in segments:
        segment.close()
        segment.unlink()


def shard_sizes(num_objects: int, num_shards: int) -> list[int]:
    store = columnar(m=1, n=num_objects, seed=num_objects)
    specs, segments = partition_columnar(store, num_shards)
    release(segments)
    return [spec.num_objects for spec in specs]


class TestShardBounds:
    """Shard counts and sizes: 1 <= S <= N, sizes differ by at most
    one, every shard is non-empty and the shards cover the store."""

    def test_balanced_cover(self):
        assert shard_sizes(10, 3) == [4, 3, 3]

    def test_exact_division(self):
        assert shard_sizes(9, 3) == [3, 3, 3]

    def test_single_shard_is_identity(self):
        store = columnar(m=2, n=7, seed=3)
        specs, segments = partition_columnar(store, 1)
        try:
            objects, matrix = read_attached(
                specs[0],
                lambda s: (list(s.interned_objects), s.grades_matrix().copy()),
            )
            assert objects == list(store.interned_objects)
            np.testing.assert_array_equal(matrix, store.grades_matrix())
        finally:
            release(segments)

    def test_every_shard_nonempty(self):
        for n in range(1, 10):
            for s in range(1, n + 1):
                sizes = shard_sizes(n, s)
                assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
                assert sum(sizes) == n

    def test_more_shards_than_objects_refused(self):
        with pytest.raises(ValueError, match="non-empty"):
            partition_columnar(columnar(m=1, n=3, seed=1), 4)

    def test_zero_shards_refused(self):
        with pytest.raises(ValueError, match="at least one"):
            partition_columnar(columnar(m=1, n=3, seed=1), 0)


class TestPartitionInvariant:
    def test_every_object_lands_in_exactly_one_shard(self):
        store = columnar()
        specs, segments = partition_columnar(store, 4)
        try:
            members = [
                read_attached(spec, lambda s: list(s.interned_objects))
                for spec in specs
            ]
            objects = list(store.interned_objects)
            assert members == [objects[s::4] for s in range(4)]
            assert sorted(o for shard in members for o in shard) == sorted(
                objects
            )
        finally:
            release(segments)

    def test_shard_grades_match_global_store(self):
        store = columnar(m=2, n=50, seed=9)
        specs, segments = partition_columnar(store, 3)
        try:
            matrix = store.grades_matrix()
            for s, spec in enumerate(specs):
                shard_matrix = read_attached(
                    spec, lambda s: s.grades_matrix().copy()
                )
                np.testing.assert_array_equal(shard_matrix, matrix[:, s::3])
        finally:
            release(segments)

    def test_every_shard_spans_list_zero(self):
        """A store built from a scoring database interns its objects in
        list 0's ranking; a strided split still gives every shard both
        top and bottom list-0 grades (contiguous slices gave the last
        shard nothing above about 0.25)."""
        store = ColumnarScoringDatabase.from_scoring_database(
            independent_database(3, 400, seed=15)
        )
        specs, segments = partition_columnar(store, 4)
        try:
            for spec in specs:
                column = read_attached(
                    spec, lambda s: s.grades_matrix()[0].copy()
                )
                assert column.max() > 0.9 and column.min() < 0.1
        finally:
            release(segments)

    def test_local_order_is_restriction_of_global(self):
        """Shard s's ranking of list i equals the global ranking of
        list i filtered down to shard s's objects — the property the
        merge's local-exactness argument needs."""
        store = columnar(m=3, n=80, seed=2)
        specs, segments = partition_columnar(store, 3)
        try:
            for i in range(store.num_lists):
                global_ranking = [
                    item.obj for item in store.ranking(i)
                ]
                for spec in specs:
                    members, local = read_attached(
                        spec,
                        lambda s, i=i: (
                            set(s.interned_objects),
                            [item.obj for item in s.ranking(i)],
                        ),
                    )
                    expected = [
                        obj for obj in global_ranking if obj in members
                    ]
                    assert local == expected
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_attached_shard_answers_its_local_top_k(self):
        from repro.algorithms.threshold import ThresholdAlgorithm

        store = columnar(m=2, n=60, seed=4)
        specs, segments = partition_columnar(store, 2)
        try:

            def probe(shard):
                result = ThresholdAlgorithm().top_k(
                    shard.session(), MINIMUM, 5
                )
                # Brute-force the local truth from the shard's columns.
                truth = sorted(
                    (
                        (min(shard.grade(i, o) for i in range(2)), o)
                        for o in shard.interned_objects
                    ),
                    key=lambda pair: (-pair[0], str(pair[1])),
                )[:5]
                return [it.grade for it in result.items], [
                    g for g, _ in truth
                ]

            got, want = read_attached(specs[0], probe)
            assert got == want
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()


class TestBackends:
    def test_mmap_backend_round_trips(self):
        store = columnar(m=2, n=40, seed=7)
        specs, segments = partition_columnar(store, 2, backend="mmap")
        try:
            assert all(spec.token[0] == "mmap" for spec in specs)
            count, objects = read_attached(
                specs[1],
                lambda s: (s.num_objects, list(s.interned_objects)),
            )
            assert count == specs[1].num_objects
            assert objects == list(store.interned_objects)[1::2]
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_specs_are_picklable(self):
        import pickle

        store = columnar(m=2, n=30, seed=1)
        specs, segments = partition_columnar(store, 2)
        try:
            for spec in specs:
                clone = pickle.loads(pickle.dumps(spec))
                assert clone == spec
                assert isinstance(clone, ShardSpec)
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_unknown_backend_refused(self):
        store = columnar(m=2, n=30, seed=1)
        with pytest.raises(ValueError, match="unknown segment backend"):
            partition_columnar(store, 2, backend="nvram")

    def test_attach_after_unlink_is_a_sharding_error(self):
        store = columnar(m=2, n=30, seed=1)
        specs, segments = partition_columnar(store, 2)
        for segment in segments:
            segment.close()
            segment.unlink()
        with pytest.raises(ShardingError, match="does not exist"):
            attach_store(specs[0])

    def test_too_many_shards_refused(self):
        store = columnar(m=2, n=5, seed=1)
        with pytest.raises(ValueError):
            partition_columnar(store, 6)
