"""Hostile values in every request field: a structured 4xx, never a 5xx.

The deterministic floor under a wire fuzzer. Each field of ``POST
/v1/query`` and ``POST /v1/cursor``, and ``k`` / ``deadline_ms`` of
``GET /v1/cursor/{id}/next``, gets every value of one fixed table —
numbers past float range as JSON integers and as floats, NaN and
Infinity, wrong types, zero, negatives, a fraction and a large int —
on a source engine and on the serving CLI's catalog demo engine.
Every answer must be below 500, every error must be the structured
envelope, and ``/healthz`` must answer 200 afterwards.
"""

import argparse
import asyncio
import json

import pytest

from repro.engine import Engine
from repro.serving import HttpRequest, ServingApp, ServingConfig
from repro.serving.__main__ import build_engine
from repro.workloads.skeletons import independent_database

N = 300

#: (label, raw JSON text) — spliced into request bodies verbatim, and
#: used as-is as query-string values.
HOSTILE = [
    ("+10**400", "1" + "0" * 400),
    ("-10**400", "-1" + "0" * 400),
    ("+1e400", "1e400"),
    ("-1e400", "-1e400"),
    ("NaN", "NaN"),
    ("Infinity", "Infinity"),
    ("true", "true"),
    ("null", "null"),
    ("string", '"x"'),
    ("list", "[]"),
    ("object", "{}"),
    ("0", "0"),
    ("-1", "-1"),
    ("2.5", "2.5"),
    ("10**30", "1" + "0" * 30),
]

BODY_FIELDS = [
    "k",
    "epsilon",
    "deadline_ms",
    "page_size",
    "allow_partial",
    "strategy",
    "conjunction",
]

#: The query spec of each engine: an aggregation on the source, a
#: pageable algorithm plan on the catalog, and the CI serving-smoke
#: query, a filtered-conjunct plan that cannot page.
SPECS = {
    "source": '"aggregation": "min"',
    "catalog": '"query": "Color ~ \\"red\\""',
    "catalog-filtered": (
        '"query": "(Artist = \\"artist-1\\") AND (Color ~ \\"red\\")"'
    ),
}


def make_engine(spec: str) -> Engine:
    if spec == "source":
        return Engine.over(independent_database(3, N, seed=11))
    return build_engine(
        argparse.Namespace(backing="catalog", n=N, seed=0, shards=0)
    )


def request(method: str, path: str, body: str = "", query=None) -> HttpRequest:
    return HttpRequest(
        method=method,
        path=path,
        query=query or {},
        headers={},
        body=body.encode(),
    )


def problem(response, label: str) -> str | None:
    """Why ``response`` breaks the contract, or None when it holds."""
    if response.status >= 500:
        return f"{label}: {response.status} {response.body[:200]!r}"
    if response.status >= 400:
        error = json.loads(response.body).get("error", {})
        if error.get("status") != response.status or not (
            error.get("code") and error.get("message")
        ):
            return f"{label}: unstructured {response.status} {response.body!r}"
    return None


def sweep(spec: str, send) -> list[str]:
    """Run ``send(app, label, raw)`` for every hostile value, then
    probe /healthz; returns every contract breach found."""

    async def scenario():
        app = ServingApp(make_engine(spec), ServingConfig())
        try:
            found = []
            for label, raw in HOSTILE:
                found += [p for p in await send(app, label, raw) if p]
            health = await app.handle(request("GET", "/healthz"))
            if health.status != 200:
                found.append(f"/healthz afterwards: {health.status}")
            return found
        finally:
            await app.shutdown(grace_s=1.0)

    return asyncio.run(scenario())


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("path", ["/v1/query", "/v1/cursor"])
@pytest.mark.parametrize("field", BODY_FIELDS)
def test_body_field(spec, path, field):
    async def send(app, label, raw):
        body = f'{{{SPECS[spec]}, "k": 5, "{field}": {raw}}}'
        if field == "k":
            body = f'{{{SPECS[spec]}, "k": {raw}}}'
        response = await app.handle(request("POST", path, body))
        return [problem(response, f"{field}={label}")]

    assert sweep(spec, send) == []


@pytest.mark.parametrize("spec", ["source", "catalog"])
@pytest.mark.parametrize("field", ["k", "deadline_ms"])
def test_cursor_next_query_parameter(spec, field):
    async def send(app, label, raw):
        opened = await app.handle(
            request(
                "POST", "/v1/cursor", f'{{{SPECS[spec]}, "page_size": 5}}'
            )
        )
        assert opened.status == 201, opened.body
        cursor = f"/v1/cursor/{json.loads(opened.body)['cursor_id']}"
        page = await app.handle(
            request("GET", f"{cursor}/next", query={field: raw})
        )
        closed = await app.handle(request("DELETE", cursor))
        return [
            problem(page, f"next?{field}={label}"),
            problem(closed, f"close after {field}={label}"),
        ]

    assert sweep(spec, send) == []
