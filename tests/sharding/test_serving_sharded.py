"""Serving over a sharded engine: config validation, the CLI's
engine builder, worker-pool liveness in /healthz, and query/metrics
parity through the HTTP application layer.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing

import pytest

from repro.access import ColumnarScoringDatabase
from repro.core.tnorms import MINIMUM
from repro.engine import Engine
from repro.serving import HttpRequest, ServingApp, ServingConfig
from repro.serving.__main__ import build_engine
from repro.workloads.skeletons import independent_database

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

N, M = 240, 3


def columnar() -> ColumnarScoringDatabase:
    return ColumnarScoringDatabase.from_scoring_database(
        independent_database(M, N, seed=21)
    )


def make_request(method, path, payload=None, query=None) -> HttpRequest:
    body = b"" if payload is None else json.dumps(payload).encode()
    return HttpRequest(
        method=method, path=path, query=query or {}, headers={}, body=body
    )


def parse(response) -> dict:
    return json.loads(response.body)


def sharded_app(processes: int) -> ServingApp:
    engine = Engine.over_shards(
        columnar(), shards=3, processes=processes, start_method="fork"
    )
    return ServingApp(
        engine,
        ServingConfig(shards=3, shard_processes=processes),
    )


class TestConfigValidation:
    def test_negative_shards_refused(self):
        with pytest.raises(ValueError, match="shards"):
            ServingConfig(shards=-1)

    def test_negative_shard_processes_refused(self):
        with pytest.raises(ValueError, match="shard_processes"):
            ServingConfig(shards=2, shard_processes=-1)

    def test_shard_processes_without_shards_refused(self):
        with pytest.raises(ValueError, match="without shards"):
            ServingConfig(shard_processes=2)

    def test_unsharded_default_is_fine(self):
        config = ServingConfig()
        assert config.shards is None
        assert config.shard_processes is None


class TestBuildEngine:
    def args(self, **overrides) -> argparse.Namespace:
        base = dict(
            backing="columnar", n=60, m=2, seed=1, shards=0,
            shard_processes=None,
        )
        base.update(overrides)
        return argparse.Namespace(**base)

    def test_columnar_with_shards_builds_sharded_engine(self):
        engine = build_engine(self.args(shards=2, shard_processes=0))
        try:
            assert engine.sharding is not None
            assert engine.sharding.num_shards == 2
            assert engine.sharding.processes == 0
        finally:
            engine.close()

    def test_columnar_without_shards_is_unsharded(self):
        engine = build_engine(self.args())
        assert engine.sharding is None

    def test_catalog_with_shards_refused(self):
        with pytest.raises(SystemExit, match="columnar backing only"):
            build_engine(self.args(backing="catalog", shards=2))


class TestHealthz:
    def test_inline_backing_reports_workers_ok(self):
        async def scenario():
            app = sharded_app(processes=0)
            try:
                return await app.handle(make_request("GET", "/healthz"))
            finally:
                await app.shutdown(grace_s=1.0)

        response = asyncio.run(scenario())
        assert response.status == 200
        payload = parse(response)
        assert payload["status"] == "ok"
        workers = payload["workers"]
        assert workers["shards"] == 3
        assert workers["processes"] == 0
        assert workers["broken"] is False

    def test_pooled_backing_reports_live_worker(self):
        async def scenario():
            app = sharded_app(processes=1)
            try:
                return await app.handle(make_request("GET", "/healthz"))
            finally:
                await app.shutdown(grace_s=2.0)

        response = asyncio.run(scenario())
        assert response.status == 200
        payload = parse(response)
        workers = payload["workers"]
        assert workers["alive"] == 1
        assert len(workers["pids"]) == 1
        assert workers["broken"] is False

    def test_drained_app_reports_draining_with_dead_pool(self):
        async def scenario():
            app = sharded_app(processes=0)
            await app.shutdown(grace_s=1.0)
            return await app.handle(make_request("GET", "/healthz"))

        response = asyncio.run(scenario())
        assert response.status == 503
        payload = parse(response)
        assert payload["status"] == "draining"
        assert payload["workers"]["broken"] is True


class TestQueriesAndMetrics:
    def test_query_answer_matches_direct_engine(self):
        store = columnar()
        with Engine.over(store) as single:
            direct = single.query(MINIMUM).top(7)

        async def scenario():
            app = sharded_app(processes=1)
            try:
                query = await app.handle(
                    make_request(
                        "POST", "/v1/query", {"aggregation": "min", "k": 7}
                    )
                )
                metrics = await app.handle(make_request("GET", "/metrics"))
                return query, metrics
            finally:
                await app.shutdown(grace_s=2.0)

        query, metrics = asyncio.run(scenario())
        assert query.status == 200
        payload = parse(query)
        assert [
            (item["obj"], item["grade"]) for item in payload["items"]
        ] == [(item.obj, item.grade) for item in direct.items]
        assert payload["algorithm"].startswith("sharded-")
        engine_metrics = parse(metrics)["engine"]
        assert engine_metrics["backing"] == "sharded"
        assert engine_metrics["sharding"]["shards"] == 3
        assert engine_metrics["sharding"]["queries"] == 1
