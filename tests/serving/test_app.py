"""ServingApp driven directly (no sockets): routing, envelopes,
admission, deadlines, cursors, drain.

Each test builds requests as :class:`HttpRequest` values and awaits
``app.handle`` under ``asyncio.run`` — the application layer is the
unit, the transport is covered by test_server_integration.py.
"""

import argparse
import asyncio
import json
import time

import pytest

from repro.core.tnorms import MINIMUM
from repro.engine import Engine
from repro.serving import HttpRequest, ServingApp, ServingConfig
from repro.serving.__main__ import build_engine
from repro.workloads.skeletons import independent_database

N, M = 300, 3


def make_request(
    method: str,
    path: str,
    payload: dict | None = None,
    query: dict | None = None,
    body: bytes | None = None,
) -> HttpRequest:
    if body is None:
        body = b"" if payload is None else json.dumps(payload).encode()
    return HttpRequest(
        method=method,
        path=path,
        query=query or {},
        headers={},
        body=body,
    )


def parse(response) -> dict:
    return json.loads(response.body)


@pytest.fixture()
def db():
    return independent_database(M, N, seed=11)


def make_app(db, **config_kwargs) -> ServingApp:
    return ServingApp(Engine.over(db), ServingConfig(**config_kwargs))


async def drained(app: ServingApp) -> None:
    await app.shutdown(grace_s=1.0)


class SlowStore:
    """A store whose session minting blocks — queries take >= delay.

    Minting happens inside the engine call on the pool thread, so this
    makes the *engine work* slow without touching the event loop.
    """

    def __init__(self, db, delay_s: float) -> None:
        self.db = db
        self.delay_s = delay_s

    def session(self):
        time.sleep(self.delay_s)
        return self.db.session()


class TestQuery:
    def test_answer_bit_identical_to_direct_engine(self, db):
        direct = Engine.over(db).query(MINIMUM).top(7)

        async def scenario():
            app = make_app(db)
            try:
                return await app.handle(
                    make_request(
                        "POST", "/v1/query", {"aggregation": "min", "k": 7}
                    )
                )
            finally:
                await drained(app)

        response = asyncio.run(scenario())
        assert response.status == 200
        payload = parse(response)
        assert [
            (item["obj"], item["grade"]) for item in payload["items"]
        ] == [(item.obj, item.grade) for item in direct.items]
        assert payload["stats"]["sorted"] == direct.stats.sorted_cost
        assert payload["stats"]["random"] == direct.stats.random_cost
        assert payload["algorithm"] == direct.algorithm

    def test_concurrent_queries_all_identical(self, db):
        direct = Engine.over(db).query(MINIMUM).top(5)

        async def scenario():
            app = make_app(db, max_inflight=4, max_queue=16)
            try:
                return await asyncio.gather(
                    *(
                        app.handle(
                            make_request(
                                "POST",
                                "/v1/query",
                                {"aggregation": "min", "k": 5},
                            )
                        )
                        for _ in range(12)
                    )
                )
            finally:
                await drained(app)

        responses = asyncio.run(scenario())
        assert all(r.status == 200 for r in responses)
        expected = [(item.obj, item.grade) for item in direct.items]
        for response in responses:
            payload = parse(response)
            assert [
                (item["obj"], item["grade"]) for item in payload["items"]
            ] == expected

    def test_named_aggregations_resolve(self, db):
        async def scenario():
            app = make_app(db)
            try:
                return [
                    (
                        name,
                        await app.handle(
                            make_request(
                                "POST",
                                "/v1/query",
                                {"aggregation": name, "k": 3},
                            )
                        ),
                    )
                    for name in ("min", "max", "mean", "product")
                ]
            finally:
                await drained(app)

        for name, response in asyncio.run(scenario()):
            assert response.status == 200, (name, response.body)


class TestErrorEnvelopes:
    def run_one(self, db, request) -> tuple[int, dict]:
        async def scenario():
            app = make_app(db)
            try:
                return await app.handle(request)
            finally:
                await drained(app)

        response = asyncio.run(scenario())
        return response.status, parse(response)

    def test_unknown_route_404(self, db):
        status, payload = self.run_one(db, make_request("GET", "/nope"))
        assert status == 404
        assert payload["error"]["code"] == "unknown_route"

    def test_invalid_json_400(self, db):
        status, payload = self.run_one(
            db, make_request("POST", "/v1/query", body=b"{not json")
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_json"

    def test_missing_spec_400(self, db):
        status, payload = self.run_one(
            db, make_request("POST", "/v1/query", {"k": 3})
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"

    def test_both_query_and_aggregation_400(self, db):
        status, payload = self.run_one(
            db,
            make_request(
                "POST",
                "/v1/query",
                {"query": "x", "aggregation": "min", "k": 3},
            ),
        )
        assert status == 400

    def test_unknown_aggregation_400_lists_catalogue(self, db):
        status, payload = self.run_one(
            db, make_request("POST", "/v1/query", {"aggregation": "median"})
        )
        assert status == 400
        assert payload["error"]["code"] == "unknown_aggregation"
        assert "min" in payload["error"]["message"]

    def test_invalid_k_is_enveloped_400(self, db):
        status, payload = self.run_one(
            db,
            make_request("POST", "/v1/query", {"aggregation": "min", "k": -2}),
        )
        assert status == 400
        assert "error" in payload

    def test_invalid_deadline_400(self, db):
        status, payload = self.run_one(
            db,
            make_request(
                "POST",
                "/v1/query",
                {"aggregation": "min", "k": 3, "deadline_ms": "soon"},
            ),
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_deadline"

    @pytest.mark.parametrize("raw", ["Infinity", "-Infinity", "1e400", "NaN"])
    def test_non_finite_deadline_400(self, db, raw):
        body = b'{"aggregation": "min", "k": 3, "deadline_ms": %s}' % (
            raw.encode()
        )
        status, payload = self.run_one(
            db, make_request("POST", "/v1/query", body=body)
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_deadline"

    @pytest.mark.parametrize("raw", ["true", "2.5"])
    def test_non_integer_deadline_400(self, db, raw):
        # int() used to read these as 1 ms and 2 ms: a 504 or a 200 by
        # timing, instead of the client's bad deadline.
        body = b'{"aggregation": "min", "k": 3, "deadline_ms": %s}' % (
            raw.encode()
        )
        status, payload = self.run_one(
            db, make_request("POST", "/v1/query", body=body)
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_deadline"

    @pytest.mark.parametrize("path", ["/v1/query", "/v1/cursor"])
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_epsilon_past_float_range_400(self, db, path, sign):
        # A JSON integer of 401 digits parses, but float() of it
        # overflows; it is the client's bad epsilon, not a 500.
        body = b'{"aggregation": "min", "k": 3, "epsilon": %s1%s}' % (
            sign.encode(),
            b"0" * 400,
        )
        status, payload = self.run_one(db, make_request("POST", path, body=body))
        assert status == 400
        assert payload["error"]["code"] == "invalid_epsilon"

    @pytest.mark.parametrize("path", ["/v1/query", "/v1/cursor"])
    def test_deeply_nested_json_400(self, db, path):
        status, payload = self.run_one(
            db, make_request("POST", path, body=b"[" * 200_000)
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_json"

    def test_healthz_after_hostile_bodies(self, db):
        async def scenario():
            app = make_app(db)
            try:
                statuses = [
                    (
                        await app.handle(
                            make_request("POST", "/v1/query", body=body)
                        )
                    ).status
                    for body in (
                        b'{"aggregation": "min", "deadline_ms": Infinity}',
                        b"[" * 200_000,
                    )
                ]
                health = await app.handle(make_request("GET", "/healthz"))
                return statuses, health.status
            finally:
                await drained(app)

        assert asyncio.run(scenario()) == ([400, 400], 200)

    def test_query_string_on_source_backing_400(self, db):
        status, payload = self.run_one(
            db,
            make_request("POST", "/v1/query", {"query": "Color ~ 'red'"}),
        )
        assert status == 400
        assert "error" in payload

    def test_engine_still_healthy_after_client_errors(self, db):
        async def scenario():
            app = make_app(db)
            try:
                await app.handle(
                    make_request("POST", "/v1/query", body=b"broken")
                )
                await app.handle(
                    make_request(
                        "POST", "/v1/query", {"aggregation": "nope"}
                    )
                )
                return await app.handle(
                    make_request(
                        "POST", "/v1/query", {"aggregation": "min", "k": 3}
                    )
                )
            finally:
                await drained(app)

        assert asyncio.run(scenario()).status == 200


#: Two catalog queries whose plans cannot page: the engine refuses a
#: cursor for each, which ``allow_partial`` requests used to surface.
UNPAGEABLE_QUERIES = [
    pytest.param(
        '(Artist = "artist-1") AND (Color ~ "red")', id="filtered-conjunct"
    ),
    pytest.param(
        '(Color ~ "red") AND NOT (Artist = "artist-1")', id="full-scan"
    ),
]


def catalog_engine() -> Engine:
    """The serving CLI's federated demo backing (``--backing catalog``)."""
    return build_engine(
        argparse.Namespace(backing="catalog", n=N, seed=0, shards=0)
    )


class TestAllowPartialOnUnpageablePlans:
    """``allow_partial`` pages through a cursor; a plan that cannot
    page is answered whole under the deadline instead — a 200 when it
    completes, a 504 when it expires, never a 400."""

    @pytest.mark.parametrize("query", UNPAGEABLE_QUERIES)
    def test_answers_like_the_flagless_request(self, query):
        async def scenario():
            app = ServingApp(catalog_engine(), ServingConfig())
            try:
                plain, partial = [
                    await app.handle(
                        make_request("POST", "/v1/query", payload)
                    )
                    for payload in (
                        {"query": query, "k": 5},
                        {
                            "query": query,
                            "k": 5,
                            "deadline_ms": 5000,
                            "allow_partial": True,
                        },
                    )
                ]
                return plain, partial
            finally:
                await drained(app)

        plain, partial = asyncio.run(scenario())
        assert plain.status == 200, parse(plain)
        assert partial.status == 200, parse(partial)
        assert parse(partial)["items"] == parse(plain)["items"]
        assert not parse(partial).get("partial")
        assert parse(partial)["guarantee"]["kind"] == "exact"

    def test_expired_deadline_is_504(self):
        from repro.subsystems import QbicSubsystem, RelationalSubsystem

        class SlowRelational(RelationalSubsystem):
            def evaluate(self, query):
                time.sleep(0.5)
                return super().evaluate(query)

        objects = [f"o{i}" for i in range(N)]
        engine = (
            Engine()
            .register(
                SlowRelational(
                    "rel",
                    {o: {"Artist": f"artist-{i % 17}"} for i, o in enumerate(objects)},
                )
            )
            .register(
                QbicSubsystem(
                    "img", {"Color": {o: (0.5, 0.5, 0.5) for o in objects}}
                )
            )
        )

        async def scenario():
            app = ServingApp(engine, ServingConfig())
            try:
                response = await app.handle(
                    make_request(
                        "POST",
                        "/v1/query",
                        {
                            "query": UNPAGEABLE_QUERIES[0].values[0],
                            "k": 5,
                            "deadline_ms": 100,
                            "allow_partial": True,
                        },
                    )
                )
                health = await app.handle(make_request("GET", "/healthz"))
                return response, health
            finally:
                await drained(app)

        response, health = asyncio.run(scenario())
        assert response.status == 504, parse(response)
        error = parse(response)["error"]
        assert error["code"] == "deadline_exceeded"
        # The plain deadline path ran, not the cursor's "before any
        # page completed": planning never touches the slow subsystem.
        assert "page" not in error["message"]
        assert health.status == 200


class TestDeadline:
    def test_deadline_exceeded_504_engine_stays_healthy(self, db):
        slow = SlowStore(db, delay_s=0.25)

        async def scenario():
            app = ServingApp(Engine.over(slow), ServingConfig())
            try:
                timed_out = await app.handle(
                    make_request(
                        "POST",
                        "/v1/query",
                        {"aggregation": "min", "k": 3, "deadline_ms": 30},
                    )
                )
                healthy = await app.handle(
                    make_request(
                        "POST", "/v1/query", {"aggregation": "min", "k": 3}
                    )
                )
                return timed_out, healthy
            finally:
                await drained(app)

        timed_out, healthy = asyncio.run(scenario())
        assert timed_out.status == 504
        envelope = parse(timed_out)["error"]
        assert envelope["code"] == "deadline_exceeded"
        assert envelope["details"]["deadline_ms"] == 30
        assert healthy.status == 200

    def test_default_deadline_from_config(self, db):
        slow = SlowStore(db, delay_s=0.25)

        async def scenario():
            app = ServingApp(
                Engine.over(slow),
                ServingConfig(default_deadline_ms=30),
            )
            try:
                return await app.handle(
                    make_request(
                        "POST", "/v1/query", {"aggregation": "min", "k": 3}
                    )
                )
            finally:
                await drained(app)

        assert asyncio.run(scenario()).status == 504

    def test_deadline_counted_in_metrics(self, db):
        slow = SlowStore(db, delay_s=0.25)

        async def scenario():
            app = ServingApp(Engine.over(slow), ServingConfig())
            try:
                await app.handle(
                    make_request(
                        "POST",
                        "/v1/query",
                        {"aggregation": "min", "k": 3, "deadline_ms": 30},
                    )
                )
                return parse(
                    await app.handle(make_request("GET", "/metrics"))
                )
            finally:
                await drained(app)

        metrics = asyncio.run(scenario())
        assert metrics["server"]["deadline_exceeded_total"] == 1


class TestAdmission:
    def test_over_admission_sheds_503_with_retry_after(self, db):
        slow = SlowStore(db, delay_s=0.3)

        async def scenario():
            app = ServingApp(
                Engine.over(slow),
                ServingConfig(max_inflight=1, max_queue=0),
            )
            try:
                request = make_request(
                    "POST", "/v1/query", {"aggregation": "min", "k": 3}
                )
                first = asyncio.create_task(app.handle(request))
                await asyncio.sleep(0.05)  # first now holds the slot
                second = await app.handle(request)
                return await first, second
            finally:
                await drained(app)

        first, second = asyncio.run(scenario())
        assert first.status == 200
        assert second.status == 503
        assert parse(second)["error"]["code"] == "overloaded"
        assert any(
            name.lower() == "retry-after" for name, _ in second.headers
        )

    def test_shed_counted_in_metrics(self, db):
        slow = SlowStore(db, delay_s=0.3)

        async def scenario():
            app = ServingApp(
                Engine.over(slow),
                ServingConfig(max_inflight=1, max_queue=0),
            )
            try:
                request = make_request(
                    "POST", "/v1/query", {"aggregation": "min", "k": 3}
                )
                first = asyncio.create_task(app.handle(request))
                await asyncio.sleep(0.05)
                await app.handle(request)
                await first
                return parse(
                    await app.handle(make_request("GET", "/metrics"))
                )
            finally:
                await drained(app)

        metrics = asyncio.run(scenario())
        assert metrics["server"]["shed_total"] == 1
        assert metrics["admission"]["shed_total"] == 1

    def test_queue_admits_after_slot_frees(self, db):
        async def scenario():
            app = make_app(db, max_inflight=1, max_queue=8)
            try:
                request = make_request(
                    "POST", "/v1/query", {"aggregation": "min", "k": 3}
                )
                return await asyncio.gather(
                    *(app.handle(request) for _ in range(6))
                )
            finally:
                await drained(app)

        responses = asyncio.run(scenario())
        assert [r.status for r in responses] == [200] * 6


class TestCursor:
    def open_request(self, page_size=10):
        return make_request(
            "POST",
            "/v1/cursor",
            {"aggregation": "min", "page_size": page_size},
        )

    def test_full_lifecycle(self, db):
        async def scenario():
            app = make_app(db)
            try:
                opened = await app.handle(self.open_request())
                cursor_id = parse(opened)["cursor_id"]
                first = await app.handle(
                    make_request("GET", f"/v1/cursor/{cursor_id}/next")
                )
                described = await app.handle(
                    make_request("GET", f"/v1/cursor/{cursor_id}")
                )
                closed = await app.handle(
                    make_request("DELETE", f"/v1/cursor/{cursor_id}")
                )
                after_close = await app.handle(
                    make_request("GET", f"/v1/cursor/{cursor_id}/next")
                )
                return opened, first, described, closed, after_close
            finally:
                await drained(app)

        opened, first, described, closed, after_close = asyncio.run(
            scenario()
        )
        assert opened.status == 201
        body = parse(opened)
        assert body["next"] == f"/v1/cursor/{body['cursor_id']}/next"
        page = parse(first)
        assert first.status == 200
        assert len(page["items"]) == 10
        assert page["pages_fetched"] == 1
        assert page["remaining"] == N - 10
        assert not page["done"]
        assert parse(described)["pages_served"] == 1
        assert closed.status == 200
        assert after_close.status == 404

    def test_pages_match_direct_cursor(self, db):
        direct = Engine.over(db).query(MINIMUM).cursor()
        direct_pages = [direct.next_k(20) for _ in range(3)]

        async def scenario():
            app = make_app(db)
            try:
                opened = await app.handle(self.open_request(page_size=20))
                cursor_id = parse(opened)["cursor_id"]
                return [
                    parse(
                        await app.handle(
                            make_request(
                                "GET", f"/v1/cursor/{cursor_id}/next"
                            )
                        )
                    )
                    for _ in range(3)
                ]
            finally:
                await drained(app)

        wire_pages = asyncio.run(scenario())
        for wire, page in zip(wire_pages, direct_pages):
            assert [
                (item["obj"], item["grade"]) for item in wire["items"]
            ] == [(item.obj, item.grade) for item in page.items]

    def test_paging_to_exhaustion_reports_done(self, db):
        async def scenario():
            app = make_app(db)
            try:
                opened = await app.handle(self.open_request(page_size=100))
                cursor_id = parse(opened)["cursor_id"]
                pages = []
                for _ in range(N // 100 + 2):
                    page = parse(
                        await app.handle(
                            make_request(
                                "GET", f"/v1/cursor/{cursor_id}/next"
                            )
                        )
                    )
                    pages.append(page)
                    if page["done"]:
                        break
                return pages
            finally:
                await drained(app)

        pages = asyncio.run(scenario())
        assert pages[-1]["done"]
        total = sum(len(page["items"]) for page in pages)
        assert total == N
        # A post-done fetch is an empty done page, not an error.
        assert pages[-1]["remaining"] == 0

    def test_invalid_page_size_400(self, db):
        async def scenario():
            app = make_app(db)
            try:
                return await app.handle(self.open_request(page_size=0))
            finally:
                await drained(app)

        response = asyncio.run(scenario())
        assert response.status == 400
        assert parse(response)["error"]["code"] == "invalid_page_size"

    def test_unknown_cursor_404(self, db):
        async def scenario():
            app = make_app(db)
            try:
                return await app.handle(
                    make_request("GET", "/v1/cursor/ffffffffffffffff/next")
                )
            finally:
                await drained(app)

        response = asyncio.run(scenario())
        assert response.status == 404
        assert parse(response)["error"]["code"] == "unknown_cursor"

    def test_session_limit_503(self, db):
        async def scenario():
            app = make_app(db, max_cursors=2)
            try:
                responses = [
                    await app.handle(self.open_request()) for _ in range(3)
                ]
                return responses
            finally:
                await drained(app)

        responses = asyncio.run(scenario())
        assert [r.status for r in responses] == [201, 201, 503]
        assert parse(responses[2])["error"]["code"] == "too_many_cursors"


class TestCursorPastThePopulation:
    """A page larger than what is left answers with what is left, on a
    fresh cursor exactly as on one that has served a page (a fresh
    cursor used to answer 400 ``InsufficientObjectsError``)."""

    SPECS = {
        "source": {"aggregation": "min"},
        "catalog": {"query": 'Color ~ "red"'},
    }

    def make(self, spec, db) -> ServingApp:
        engine = Engine.over(db) if spec == "source" else catalog_engine()
        return ServingApp(engine, ServingConfig())

    def page_all(self, spec, db, page_size, k):
        async def scenario():
            app = self.make(spec, db)
            try:
                opened = await app.handle(
                    make_request(
                        "POST",
                        "/v1/cursor",
                        {**self.SPECS[spec], "page_size": page_size},
                    )
                )
                cursor_id = parse(opened)["cursor_id"]
                return await app.handle(
                    make_request(
                        "GET",
                        f"/v1/cursor/{cursor_id}/next",
                        query={} if k is None else {"k": str(k)},
                    )
                )
            finally:
                await drained(app)

        return asyncio.run(scenario())

    @pytest.mark.parametrize("spec", ["source", "catalog"])
    def test_fresh_cursor_clamps_k(self, spec, db):
        response = self.page_all(spec, db, page_size=None, k=N + 100)
        assert response.status == 200, response.body
        page = parse(response)
        assert len(page["items"]) == N
        assert page["remaining"] == 0 and page["done"]

    @pytest.mark.parametrize("spec", ["source", "catalog"])
    def test_first_page_clamps_page_size(self, spec, db):
        response = self.page_all(spec, db, page_size=N + 100, k=None)
        assert response.status == 200, response.body
        page = parse(response)
        assert len(page["items"]) == N
        assert page["remaining"] == 0 and page["done"]


class TestControlPlane:
    def test_healthz_ok(self, db):
        async def scenario():
            app = make_app(db)
            try:
                return await app.handle(make_request("GET", "/healthz"))
            finally:
                await drained(app)

        response = asyncio.run(scenario())
        assert response.status == 200
        body = parse(response)
        assert body["status"] == "ok"
        assert body["version"]

    def test_metrics_reports_engine_ledger_and_latency(self, db):
        async def scenario():
            app = make_app(db)
            try:
                await app.handle(
                    make_request(
                        "POST", "/v1/query", {"aggregation": "min", "k": 5}
                    )
                )
                opened = await app.handle(
                    make_request(
                        "POST",
                        "/v1/cursor",
                        {"aggregation": "mean", "page_size": 10},
                    )
                )
                cursor_id = parse(opened)["cursor_id"]
                await app.handle(
                    make_request("GET", f"/v1/cursor/{cursor_id}/next")
                )
                return parse(
                    await app.handle(make_request("GET", "/metrics"))
                )
            finally:
                await drained(app)

        metrics = asyncio.run(scenario())
        assert metrics["server"]["requests_total"] == 3
        assert metrics["server"]["qps"] > 0
        assert metrics["server"]["latency"]["p50_ms"] is not None
        assert metrics["server"]["latency"]["p99_ms"] is not None
        assert metrics["engine"]["queries"] == 1
        assert metrics["engine"]["cursor_pages"] == 1
        assert metrics["engine"]["access"]["total"] > 0
        assert metrics["cursors"]["active"] == 1
        # The adaptive planner block rides along: the one-shot query
        # consulted the chooser; the cursor (by contract) did not.
        planner = metrics["engine"]["planner"]
        assert planner["enabled"] is True
        assert planner["chooser"]["decisions"] == 1


class TestDrain:
    def test_drain_refuses_new_work_control_plane_survives(self, db):
        async def scenario():
            app = make_app(db)
            summary = await app.shutdown(grace_s=1.0)
            refused = await app.handle(
                make_request(
                    "POST", "/v1/query", {"aggregation": "min", "k": 3}
                )
            )
            health = await app.handle(make_request("GET", "/healthz"))
            metrics = await app.handle(make_request("GET", "/metrics"))
            return summary, refused, health, metrics

        summary, refused, health, metrics = asyncio.run(scenario())
        assert summary["forced"] is False
        assert refused.status == 503
        assert parse(refused)["error"]["code"] == "draining"
        assert health.status == 503
        assert parse(health)["status"] == "draining"
        assert metrics.status == 200  # post-drain scrape still works

    def test_drain_closes_live_cursors(self, db):
        async def scenario():
            app = make_app(db)
            opened = await app.handle(
                make_request(
                    "POST", "/v1/cursor", {"aggregation": "min"}
                )
            )
            assert opened.status == 201
            return await app.shutdown(grace_s=1.0)

        summary = asyncio.run(scenario())
        assert summary["cursors_closed"] == 1

    def test_shutdown_idempotent(self, db):
        async def scenario():
            app = make_app(db)
            first = await app.shutdown(grace_s=1.0)
            second = await app.shutdown(grace_s=1.0)
            return first, second

        first, second = asyncio.run(scenario())
        assert "forced" in first
        assert second == {"already_drained": True}
