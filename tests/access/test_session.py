"""Tests for middleware sessions and sub-sessions."""

import pytest

from repro.access.session import MiddlewareSession
from repro.access.source import MaterializedSource


def _sources():
    return [
        MaterializedSource("l0", {"a": 0.9, "b": 0.5}),
        MaterializedSource("l1", {"a": 0.4, "b": 0.8}),
        MaterializedSource("l2", {"a": 0.7, "b": 0.1}),
    ]


class TestOverSources:
    def test_instruments_each_list(self):
        session = MiddlewareSession.over_sources(_sources())
        assert session.num_lists == 3
        session.sources[2].next_sorted()
        assert session.tracker.snapshot().sorted_by_list == (0, 0, 1)

    def test_num_objects_default(self):
        session = MiddlewareSession.over_sources(_sources())
        assert session.num_objects == 2

    def test_num_objects_explicit(self):
        session = MiddlewareSession.over_sources(_sources(), num_objects=10)
        assert session.num_objects == 10

    def test_needs_sources(self):
        with pytest.raises(ValueError):
            MiddlewareSession.over_sources([])


class TestSubsession:
    def test_subset_and_shared_tracker(self):
        session = MiddlewareSession.over_sources(_sources())
        sub = session.subsession([0, 2])
        assert sub.num_lists == 2
        sub.sources[1].next_sorted()  # original list index 2
        assert session.tracker.snapshot().sorted_by_list == (0, 0, 1)

    def test_restart_on_subsession(self):
        session = MiddlewareSession.over_sources(_sources())
        session.sources[0].next_sorted()
        sub = session.subsession([0], restart=True)
        assert sub.sources[0].position == 0

    def test_no_restart_preserves_cursor(self):
        session = MiddlewareSession.over_sources(_sources())
        session.sources[0].next_sorted()
        sub = session.subsession([0], restart=False)
        assert sub.sources[0].position == 1
