"""The full stack over a real TCP socket: ServingServer + urllib clients.

Each test boots the server on an ephemeral port inside the test's own
event loop and drives it with blocking urllib calls from executor
threads — exactly the deployment shape (event-loop server, thread-pool
engine, independent HTTP clients).
"""

import asyncio
import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.core.tnorms import MINIMUM
from repro.engine import Engine
from repro.serving import ServingApp, ServingConfig, ServingServer
from repro.workloads.skeletons import independent_database

N, M = 400, 3


@pytest.fixture(scope="module")
def db():
    return independent_database(M, N, seed=23)


def http_json(url, payload=None, method=None, timeout=30.0):
    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode(),
        method=method or ("POST" if payload is not None else "GET"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def serve(engine_factory, config, client):
    """Boot a server, run ``client(base_url)`` off-loop, shut down.

    Returns (client result, shutdown summary).
    """

    async def scenario():
        app = ServingApp(engine_factory(), config)
        server = await ServingServer(app).start()
        base = f"http://127.0.0.1:{server.port}"
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(None, client, base)
        finally:
            summary = await server.shutdown(grace_s=2.0)
        return result, summary

    return asyncio.run(scenario())


class SlowStore:
    """A store whose session minting blocks for ``delay_s``."""

    def __init__(self, db, delay_s):
        self.db = db
        self.delay_s = delay_s

    def session(self):
        time.sleep(self.delay_s)
        return self.db.session()


class TestEndToEnd:
    def test_concurrent_clients_bit_identical_to_direct_engine(self, db):
        direct = Engine.over(db).query(MINIMUM).top(9)
        expected = [(item.obj, item.grade) for item in direct.items]

        def client(base):
            import concurrent.futures

            def one(_):
                status, body, _headers = http_json(
                    f"{base}/v1/query", {"aggregation": "min", "k": 9}
                )
                assert status == 200
                return [(i["obj"], i["grade"]) for i in body["items"]]

            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                return list(pool.map(one, range(16)))

        answers, summary = serve(
            lambda: Engine.over(db), ServingConfig(port=0), client
        )
        assert all(answer == expected for answer in answers)
        assert summary["forced"] is False
        assert summary["requests_total"] == 16

    def test_shed_has_retry_after_header(self, db):
        slow = SlowStore(db, delay_s=0.4)

        def client(base):
            import concurrent.futures

            def one(_):
                return http_json(
                    f"{base}/v1/query",
                    {"aggregation": "min", "k": 3},
                    timeout=10.0,
                )

            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                return list(pool.map(one, range(4)))

        results, _ = serve(
            lambda: Engine.over(slow),
            ServingConfig(port=0, max_inflight=1, max_queue=0),
            client,
        )
        statuses = sorted(status for status, _, _ in results)
        assert statuses[0] == 200  # exactly one winner
        assert statuses[1:] == [503] * 3
        for status, body, headers in results:
            if status == 503:
                assert body["error"]["code"] == "overloaded"
                assert headers["Retry-After"] is not None

    def test_deadline_504_then_healthy(self, db):
        slow = SlowStore(db, delay_s=0.3)

        def client(base):
            timed_out = http_json(
                f"{base}/v1/query",
                {"aggregation": "min", "k": 3, "deadline_ms": 40},
            )
            healthy = http_json(
                f"{base}/v1/query", {"aggregation": "min", "k": 3}
            )
            return timed_out, healthy

        (timed_out, healthy), _ = serve(
            lambda: Engine.over(slow), ServingConfig(port=0), client
        )
        assert timed_out[0] == 504
        assert timed_out[1]["error"]["code"] == "deadline_exceeded"
        assert healthy[0] == 200

    def test_cursor_paging_round_trips(self, db):
        def client(base):
            status, opened, _ = http_json(
                f"{base}/v1/cursor", {"aggregation": "min", "page_size": 15}
            )
            assert status == 201
            cursor_id = opened["cursor_id"]
            pages = []
            for _ in range(3):
                status, page, _ = http_json(
                    f"{base}/v1/cursor/{cursor_id}/next"
                )
                assert status == 200
                pages.append(page)
            return pages

        pages, _ = serve(lambda: Engine.over(db), ServingConfig(port=0), client)
        direct = Engine.over(db).query(MINIMUM).cursor()
        for wire, page in zip(pages, (direct.next_k(15) for _ in range(3))):
            assert [(i["obj"], i["grade"]) for i in wire["items"]] == [
                (item.obj, item.grade) for item in page.items
            ]

    def test_metrics_over_the_wire(self, db):
        def client(base):
            for _ in range(3):
                http_json(f"{base}/v1/query", {"aggregation": "min", "k": 5})
            status, metrics, _ = http_json(f"{base}/metrics")
            assert status == 200
            return metrics

        metrics, _ = serve(
            lambda: Engine.over(db), ServingConfig(port=0), client
        )
        assert metrics["server"]["requests_total"] == 3
        assert metrics["server"]["qps"] > 0
        assert metrics["server"]["latency"]["p99_ms"] is not None
        assert metrics["engine"]["queries"] == 3
        assert metrics["engine"]["access"]["total"] > 0

    def test_drain_closes_live_cursor_sessions(self, db):
        def client(base):
            status, opened, _ = http_json(
                f"{base}/v1/cursor", {"aggregation": "min"}
            )
            assert status == 201

        _, summary = serve(
            lambda: Engine.over(db), ServingConfig(port=0), client
        )
        assert summary["cursors_closed"] == 1


class TestProtocolStrictness:
    """Raw-socket probes of the HTTP reader's rejection paths."""

    def raw(self, config, payload: bytes) -> bytes:
        async def scenario():
            db = independent_database(2, 50, seed=3)
            app = ServingApp(Engine.over(db), config)
            server = await ServingServer(app).start()
            port = server.port

            def send():
                with socket.create_connection(("127.0.0.1", port), 5) as sock:
                    sock.sendall(payload)
                    sock.settimeout(5)
                    chunks = []
                    try:
                        while chunk := sock.recv(4096):
                            chunks.append(chunk)
                    except TimeoutError:
                        pass
                    return b"".join(chunks)

            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(None, send)
            finally:
                await server.shutdown(grace_s=1.0)

        return asyncio.run(scenario())

    def test_malformed_request_line_400(self):
        response = self.raw(ServingConfig(port=0), b"NONSENSE\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400")
        assert b"malformed_request_line" in response

    def test_chunked_upload_501(self):
        response = self.raw(
            ServingConfig(port=0),
            b"POST /v1/query HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 501")
        assert b"chunked_unsupported" in response

    def test_oversized_body_413(self):
        response = self.raw(
            ServingConfig(port=0, max_body_bytes=64),
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 100000\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 413")

    def test_bad_http_version_505(self):
        response = self.raw(
            ServingConfig(port=0), b"GET /healthz HTTP/2.0\r\n\r\n"
        )
        assert response.startswith(b"HTTP/1.1 505")

    def test_keep_alive_serves_sequential_requests(self):
        response = self.raw(
            ServingConfig(port=0),
            b"GET /healthz HTTP/1.1\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert response.count(b"HTTP/1.1 200") == 2
        assert b"Connection: keep-alive" in response
        assert b"Connection: close" in response
