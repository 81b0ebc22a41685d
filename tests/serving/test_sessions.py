"""Cursor-session store: TTL eviction, bounds, lifecycle errors."""

import pytest

from repro.serving import CursorSessionStore, ServingError


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class FakeCursor:
    """Stands in for AsyncResultCursor; the store never pages it."""

    pages_fetched = 0
    answers_fetched = 0
    remaining = None
    guarantee = None

    def live_bounds(self):
        return None


def make_store(**kwargs) -> tuple[CursorSessionStore, FakeClock]:
    clock = FakeClock()
    store = CursorSessionStore(clock=clock, **kwargs)
    return store, clock


class TestLifecycle:
    def test_create_get_close(self):
        store, _ = make_store()
        session = store.create(FakeCursor(), {"aggregation": "min"})
        assert store.get(session.id) is session
        closed = store.close(session.id)
        assert closed is session
        assert len(store) == 0
        assert store.closed_total == 1

    def test_ids_are_unguessable_and_unique(self):
        store, _ = make_store()
        ids = {store.create(FakeCursor(), {}).id for _ in range(50)}
        assert len(ids) == 50
        assert all(len(i) == 16 for i in ids)  # token_hex(8)

    def test_unknown_id_is_404(self):
        store, _ = make_store()
        with pytest.raises(ServingError) as excinfo:
            store.get("deadbeefdeadbeef")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_cursor"

    def test_describe_reports_paging_state(self):
        store, clock = make_store()
        session = store.create(FakeCursor(), {"aggregation": "min"})
        clock.advance(2.0)
        described = session.describe(clock())
        assert described["age_s"] == pytest.approx(2.0)
        assert described["pages_served"] == 0
        assert described["remaining"] is None


class TestTtl:
    def test_expired_session_is_410_and_deleted(self):
        store, clock = make_store(ttl_s=10.0)
        session = store.create(FakeCursor(), {})
        clock.advance(10.1)
        with pytest.raises(ServingError) as excinfo:
            store.get(session.id)
        assert excinfo.value.status == 410
        assert excinfo.value.code == "cursor_expired"
        assert len(store) == 0
        assert store.expired_total == 1

    def test_touch_refreshes_ttl(self):
        store, clock = make_store(ttl_s=10.0)
        session = store.create(FakeCursor(), {})
        clock.advance(8.0)
        store.get(session.id)  # touch
        clock.advance(8.0)
        assert store.get(session.id) is session  # 16 s old, 8 s idle

    def test_evict_expired_sweeps_only_stale(self):
        store, clock = make_store(ttl_s=10.0)
        stale = store.create(FakeCursor(), {})
        clock.advance(6.0)
        fresh = store.create(FakeCursor(), {})
        clock.advance(5.0)  # stale idle 11 s > ttl; fresh idle 5 s
        assert store.evict_expired() == 1
        assert len(store) == 1
        assert store.get(fresh.id) is fresh
        with pytest.raises(ServingError):
            store.get(stale.id)


class TestBounds:
    def test_sheds_at_session_limit(self):
        store, _ = make_store(max_sessions=2)
        store.create(FakeCursor(), {})
        store.create(FakeCursor(), {})
        with pytest.raises(ServingError) as excinfo:
            store.create(FakeCursor(), {})
        assert excinfo.value.status == 503
        assert excinfo.value.code == "too_many_cursors"
        assert excinfo.value.retry_after_s == store.ttl_s

    def test_expired_sessions_free_capacity(self):
        store, clock = make_store(max_sessions=1, ttl_s=5.0)
        store.create(FakeCursor(), {})
        clock.advance(6.0)
        store.create(FakeCursor(), {})  # eviction makes room
        assert len(store) == 1

    def test_drain_closes_everything(self):
        store, _ = make_store()
        for _ in range(3):
            store.create(FakeCursor(), {})
        assert store.drain() == 3
        assert len(store) == 0

    def test_snapshot_counters(self):
        store, clock = make_store(ttl_s=5.0)
        session = store.create(FakeCursor(), {})
        store.close(session.id)
        store.create(FakeCursor(), {})
        clock.advance(6.0)
        store.evict_expired()
        snap = store.snapshot()
        assert snap["active"] == 0
        assert snap["created_total"] == 2
        assert snap["closed_total"] == 1
        assert snap["expired_total"] == 1


class TestValidation:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            CursorSessionStore(ttl_s=0)
        with pytest.raises(ValueError):
            CursorSessionStore(max_sessions=0)
