"""Certified partial answers over HTTP: allow_partial + deadline_ms.

The contract under test (DESIGN.md "Certified results & anytime
execution"): with ``allow_partial``, a deadline expiry returns **200**
with the pages that landed plus the anytime guarantee block; without
the flag the behaviour is the historical unconditional 504.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.access.session import MiddlewareSession
from repro.access.source import MaterializedSource
from repro.core.tnorms import MINIMUM
from repro.engine import Engine
from repro.serving import HttpRequest, ServingApp, ServingConfig
from repro.workloads.skeletons import independent_database

N, M = 300, 3


def make_request(method, path, payload=None, query=None) -> HttpRequest:
    body = b"" if payload is None else json.dumps(payload).encode()
    return HttpRequest(
        method=method, path=path, query=query or {}, headers={}, body=body
    )


def parse(response) -> dict:
    return json.loads(response.body)


@pytest.fixture()
def db():
    return independent_database(M, N, seed=23)


def make_app(backing, **config_kwargs) -> ServingApp:
    return ServingApp(Engine.over(backing), ServingConfig(**config_kwargs))


async def drained(app: ServingApp) -> None:
    await app.shutdown(grace_s=1.0)


class _Gate:
    """Charges accesses; past the free budget each access sleeps.

    The slow phase lasts ``slow_window_s`` of wall clock — long enough
    to guarantee the request deadline (a fraction of it) expires first,
    short enough that the orphaned pool thread finishes its abandoned
    page quickly and shutdown's drain stays fast.
    """

    def __init__(
        self, free: int, delay_s: float, slow_window_s: float = 1.0
    ) -> None:
        self.used = 0
        self.free = free
        self.delay_s = delay_s
        self.slow_window_s = slow_window_s
        self._slow_until: float | None = None

    def charge(self, count: int) -> None:
        self.used += count
        if self.used <= self.free:
            return
        now = time.monotonic()
        if self._slow_until is None:
            self._slow_until = now + self.slow_window_s
        if now < self._slow_until:
            time.sleep(self.delay_s)


class _ThrottledSource(MaterializedSource):
    """A materialised source that turns slow after a gate's budget."""

    def __init__(self, name, ranking, gate: _Gate) -> None:
        super().__init__(name, ranking)
        self._gate = gate

    def next_sorted(self):
        self._gate.charge(1)
        return super().next_sorted()

    def sorted_access_batch(self, count):
        self._gate.charge(count)
        return super().sorted_access_batch(count)

    def random_access(self, obj):
        self._gate.charge(1)
        return super().random_access(obj)

    def random_access_many(self, objs):
        self._gate.charge(len(objs))
        return super().random_access_many(objs)


class ThrottledStore:
    """A store whose sessions are fast for ``free`` accesses, then crawl."""

    def __init__(self, db, free: int, delay_s: float) -> None:
        self.db = db
        self.free = free
        self.delay_s = delay_s

    def session(self) -> MiddlewareSession:
        gate = _Gate(self.free, self.delay_s)
        raw = [
            _ThrottledSource(f"list-{i}", self.db.ranking(i), gate)
            for i in range(self.db.num_lists)
        ]
        return MiddlewareSession.over_sources(
            raw, num_objects=self.db.num_objects
        )


def first_page_cost(db, page_size: int) -> int:
    """The deterministic access cost of the first cursor page."""
    cursor = Engine.over(db).query(MINIMUM).cursor()
    cursor.next_k(page_size)
    return cursor.total_stats().sum_cost


class TestPartialCompletes:
    def test_fast_query_completes_exactly(self, db):
        direct = Engine.over(db).query(MINIMUM).top(10)

        async def scenario():
            app = make_app(db)
            try:
                return await app.handle(
                    make_request(
                        "POST",
                        "/v1/query",
                        {
                            "aggregation": "min",
                            "k": 10,
                            "deadline_ms": 10_000,
                            "allow_partial": True,
                        },
                    )
                )
            finally:
                await drained(app)

        response = asyncio.run(scenario())
        assert response.status == 200
        payload = parse(response)
        assert payload["partial"] is False
        assert payload["guarantee"]["kind"] == "exact"
        assert [(i["obj"], i["grade"]) for i in payload["items"]] == [
            (item.obj, item.grade) for item in direct.items
        ]


class TestPartialExpiry:
    def test_expiry_returns_200_with_certified_prefix(self, db):
        # k=40 pages in fives; the gate budget covers exactly the first
        # page, so page two hits 300 ms sleeps and the 250 ms deadline
        # expires with one certified page in hand.
        free = first_page_cost(db, page_size=5)
        store = ThrottledStore(db, free=free, delay_s=0.1)

        async def scenario():
            app = make_app(store)
            try:
                return await app.handle(
                    make_request(
                        "POST",
                        "/v1/query",
                        {
                            "aggregation": "min",
                            "k": 40,
                            "deadline_ms": 250,
                            "allow_partial": True,
                        },
                    )
                )
            finally:
                await drained(app)

        response = asyncio.run(scenario())
        assert response.status == 200
        payload = parse(response)
        assert payload["partial"] is True
        assert 0 < len(payload["items"]) < 40
        guarantee = payload["guarantee"]
        assert guarantee["kind"] == "anytime"
        assert guarantee["epsilon"] == 0.0
        assert "threshold" in guarantee
        bounds = payload["bounds"]
        assert bounds["answers_certified"] == len(payload["items"])
        # The prefix really is the exact top-r.
        truth = db.true_top_k(MINIMUM, len(payload["items"]))
        assert [i["grade"] for i in payload["items"]] == [
            item.grade for item in truth
        ]
        # And the certified cap bounds everything withheld.
        hidden = db.true_top_k(MINIMUM, N)[len(payload["items"]) :]
        assert guarantee["threshold"] >= hidden[0].grade - 1e-12

    def test_without_flag_expiry_stays_504(self, db):
        store = ThrottledStore(db, free=0, delay_s=0.1)

        async def scenario():
            app = make_app(store)
            try:
                return await app.handle(
                    make_request(
                        "POST",
                        "/v1/query",
                        {"aggregation": "min", "k": 10, "deadline_ms": 100},
                    )
                )
            finally:
                await drained(app)

        response = asyncio.run(scenario())
        assert response.status == 504
        assert parse(response)["error"]["code"] == "deadline_exceeded"

    def test_zero_pages_is_still_504(self, db):
        store = ThrottledStore(db, free=0, delay_s=0.1)

        async def scenario():
            app = make_app(store)
            try:
                return await app.handle(
                    make_request(
                        "POST",
                        "/v1/query",
                        {
                            "aggregation": "min",
                            "k": 10,
                            "deadline_ms": 100,
                            "allow_partial": True,
                        },
                    )
                )
            finally:
                await drained(app)

        response = asyncio.run(scenario())
        assert response.status == 504
        assert parse(response)["error"]["code"] == "deadline_exceeded"


class TestValidation:
    @pytest.mark.parametrize("bad", ["yes", 1, None])
    def test_allow_partial_must_be_boolean(self, db, bad):
        async def scenario():
            app = make_app(db)
            try:
                return await app.handle(
                    make_request(
                        "POST",
                        "/v1/query",
                        {"aggregation": "min", "k": 5, "allow_partial": bad},
                    )
                )
            finally:
                await drained(app)

        response = asyncio.run(scenario())
        assert response.status == 400

    @pytest.mark.parametrize("bad", [-0.5, "a lot", True])
    def test_epsilon_validated(self, db, bad):
        async def scenario():
            app = make_app(db)
            try:
                return await app.handle(
                    make_request(
                        "POST",
                        "/v1/query",
                        {"aggregation": "min", "k": 5, "epsilon": bad},
                    )
                )
            finally:
                await drained(app)

        response = asyncio.run(scenario())
        assert response.status == 400
        assert parse(response)["error"]["code"] == "invalid_epsilon"

    def test_partial_with_forced_strategy_rejected(self, db):
        async def scenario():
            app = make_app(db)
            try:
                return await app.handle(
                    make_request(
                        "POST",
                        "/v1/query",
                        {
                            "aggregation": "min",
                            "k": 5,
                            "strategy": "fagin",
                            "deadline_ms": 1000,
                            "allow_partial": True,
                        },
                    )
                )
            finally:
                await drained(app)

        response = asyncio.run(scenario())
        assert response.status == 400


class TestWireGuarantees:
    def test_query_envelope_reports_guarantee(self, db):
        async def scenario():
            app = make_app(db)
            try:
                exact = await app.handle(
                    make_request(
                        "POST", "/v1/query", {"aggregation": "min", "k": 5}
                    )
                )
                approx = await app.handle(
                    make_request(
                        "POST",
                        "/v1/query",
                        {"aggregation": "min", "k": 5, "epsilon": 0.3},
                    )
                )
                return exact, approx
            finally:
                await drained(app)

        exact, approx = asyncio.run(scenario())
        assert parse(exact)["guarantee"]["kind"] == "exact"
        approx_payload = parse(approx)
        assert approx_payload["guarantee"]["kind"] == "approximate"
        assert approx_payload["guarantee"]["epsilon"] == 0.3

    def test_cursor_session_surfaces_remaining_and_guarantee(self, db):
        async def scenario():
            app = make_app(db)
            try:
                opened = parse(
                    await app.handle(
                        make_request(
                            "POST",
                            "/v1/cursor",
                            {"aggregation": "min", "page_size": 5},
                        )
                    )
                )
                cursor_id = opened["cursor_id"]
                fresh = parse(
                    await app.handle(
                        make_request("GET", f"/v1/cursor/{cursor_id}")
                    )
                )
                page = parse(
                    await app.handle(
                        make_request("GET", f"/v1/cursor/{cursor_id}/next")
                    )
                )
                described = parse(
                    await app.handle(
                        make_request("GET", f"/v1/cursor/{cursor_id}")
                    )
                )
                return fresh, page, described
            finally:
                await drained(app)

        fresh, page, described = asyncio.run(scenario())
        # Before the first page: nothing to certify yet.
        assert fresh["guarantee"] is None and fresh["bounds"] is None
        # The page itself carries its certificate.
        assert page["guarantee"]["kind"] == "anytime"
        assert page["bounds"]["answers_certified"] == 5
        # The satellite fix: describe exposes remaining + the active
        # guarantee after paging.
        assert described["remaining"] == N - 5
        assert described["guarantee"]["kind"] == "anytime"
        assert described["bounds"]["remaining_upper"] == pytest.approx(
            page["guarantee"]["threshold"]
        )
