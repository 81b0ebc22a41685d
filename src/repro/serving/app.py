"""The serving application: routes, request lifecycle, graceful drain.

Transport-independent: :meth:`ServingApp.handle` maps one
:class:`~repro.serving.protocol.HttpRequest` to one
:class:`~repro.serving.protocol.HttpResponse`; the asyncio socket
server in :mod:`repro.serving.server` is just the pump. Endpoints:

========  =========================  =====================================
method    path                       purpose
========  =========================  =====================================
POST      /v1/query                  one-shot top-k submit
POST      /v1/cursor                 open a server-side paging session
GET       /v1/cursor/{id}            describe a live session
GET       /v1/cursor/{id}/next       fetch the next page
DELETE    /v1/cursor/{id}            close a session
GET       /v1/explain                the planner's strategy description
GET       /healthz                   liveness + drain state (never shed)
GET       /metrics                   the metrics plane (never shed)
========  =========================  =====================================

Request lifecycle invariants (DESIGN.md "Serving layer" documents the
why at length):

1. **Admission before work.** Every engine-touching endpoint passes
   the :class:`~repro.serving.admission.AdmissionController`; a
   request past the queue bound is shed with 503 + ``Retry-After``
   *before* any session is minted.
2. **Deadline around work.** ``deadline_ms`` (body field or query
   parameter, clamped to the config's maximum) bounds the awaited
   engine call; expiry maps to 504. The underlying pool thread may
   finish its page in the background — the engine's per-session
   isolation means that work is invisible to every other request, and
   a timed-out *cursor* page is recorded on the session (the page was
   genuinely fetched; only delivery timed out), keeping the paging
   accounting consistent.
3. **Errors are envelopes.** Library errors (bad k, unknown
   aggregation, planning failures) map to structured 400s; only
   genuinely unexpected exceptions produce a 500, and the engine
   stays healthy either way.
4. **Draining is explicit.** During shutdown new work is refused with
   503 ``draining``, in-flight requests get the grace period, cursor
   sessions are closed, then the engine facade closes.
"""

from __future__ import annotations

import asyncio
import time
from http import HTTPStatus

from repro import __version__
from repro.algorithms.base import TopKResult
from repro.core.certify import validate_epsilon
from repro.engine.async_engine import AsyncEngine
from repro.engine.engine import Engine
from repro.exceptions import PlanningError, ReproError
from repro.serving.admission import AdmissionController
from repro.serving.config import ServingConfig
from repro.serving.metrics import ServerMetrics
from repro.serving.protocol import (
    HttpRequest,
    HttpResponse,
    ServingError,
    error_response,
    json_response,
    resolve_aggregation,
)
from repro.serving.sessions import CursorSessionStore

__all__ = ["ServingApp"]

#: Routes exempt from admission control and drain refusal: an operator
#: must always be able to ask "are you alive" and "what are you doing".
_CONTROL_ROUTES = frozenset({"/healthz", "/metrics"})


class ServingApp:
    """One engine served over the HTTP/JSON protocol."""

    def __init__(
        self, engine: Engine, config: ServingConfig | None = None
    ) -> None:
        self.config = config or ServingConfig()
        self.engine = engine
        self.async_engine = AsyncEngine(
            engine, max_workers=self.config.max_workers
        )
        self.metrics = ServerMetrics()
        self.admission = AdmissionController(
            self.config.max_inflight,
            self.config.max_queue,
            retry_after_s=self.config.shed_retry_after_s,
        )
        self.sessions = CursorSessionStore(
            ttl_s=self.config.cursor_ttl_s,
            max_sessions=self.config.max_cursors,
        )
        self._draining = False
        self._drained = asyncio.Event()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    async def handle(self, request: HttpRequest) -> HttpResponse:
        """One request, fully enveloped: never raises."""
        route, handler, args = self._route(request)
        started = time.perf_counter()
        self.metrics.request_started()
        try:
            if handler is None:
                raise ServingError(
                    HTTPStatus.NOT_FOUND,
                    "unknown_route",
                    f"no route for {request.method} {request.path}",
                )
            if self._draining and route not in _CONTROL_ROUTES:
                raise ServingError(
                    HTTPStatus.SERVICE_UNAVAILABLE,
                    "draining",
                    "server is draining for shutdown",
                    retry_after_s=self.config.shed_retry_after_s,
                )
            response = await handler(request, *args)
        except ServingError as exc:
            response = error_response(exc)
        except (ReproError, ValueError) as exc:
            # The library's own validation errors are the client's
            # fault: bad k, unknown attribute, non-monotone cursor
            # aggregation... all deterministic 400s.
            response = error_response(
                ServingError(
                    HTTPStatus.BAD_REQUEST,
                    type(exc).__name__,
                    str(exc),
                )
            )
        except asyncio.CancelledError:
            raise  # shutdown cancellation must propagate
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            response = error_response(
                ServingError(
                    HTTPStatus.INTERNAL_SERVER_ERROR,
                    "internal_error",
                    f"unexpected {type(exc).__name__}: {exc}",
                )
            )
        latency_ms = (time.perf_counter() - started) * 1e3
        self.metrics.request_finished(route, response.status, latency_ms)
        return response

    def _route(self, request: HttpRequest):
        """(template, handler, extra args) for one request."""
        method, path = request.method.upper(), request.path
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            return "/healthz", self._healthz, ()
        if path == "/metrics" and method == "GET":
            return "/metrics", self._metrics, ()
        if path == "/v1/query" and method == "POST":
            return "/v1/query", self._query, ()
        if path == "/v1/explain" and method == "GET":
            return "/v1/explain", self._explain, ()
        if path == "/v1/cursor" and method == "POST":
            return "/v1/cursor", self._cursor_open, ()
        if len(parts) == 3 and parts[:2] == ["v1", "cursor"]:
            if method == "GET":
                return "/v1/cursor/{id}", self._cursor_describe, (parts[2],)
            if method == "DELETE":
                return "/v1/cursor/{id}", self._cursor_close, (parts[2],)
        if (
            len(parts) == 4
            and parts[:2] == ["v1", "cursor"]
            and parts[3] == "next"
            and method == "GET"
        ):
            return "/v1/cursor/{id}/next", self._cursor_next, (parts[2],)
        return path, None, ()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------

    def _deadline_ms(
        self, request: HttpRequest, payload: dict | None = None
    ) -> int | None:
        """The request's effective deadline, validated and clamped."""
        raw: object | None = None
        if payload is not None and "deadline_ms" in payload:
            raw = payload["deadline_ms"]
        elif "deadline_ms" in request.query:
            raw = request.query["deadline_ms"]
        if raw is None:
            return self.config.default_deadline_ms
        try:
            if isinstance(raw, bool) or (
                isinstance(raw, float) and not raw.is_integer()
            ):
                # int() would read true as 1 ms and 2.5 as 2 ms; NaN,
                # Infinity and 1e400 are not integers either.
                raise ValueError(raw)
            deadline = int(raw)
        except (TypeError, ValueError):
            raise ServingError(
                HTTPStatus.BAD_REQUEST,
                "invalid_deadline",
                f"deadline_ms must be a positive integer, got {raw!r}",
            ) from None
        if deadline < 1:
            raise ServingError(
                HTTPStatus.BAD_REQUEST,
                "invalid_deadline",
                f"deadline_ms must be at least 1, got {deadline}",
            )
        return min(deadline, self.config.max_deadline_ms)

    async def _bounded(
        self,
        awaitable,
        deadline_ms: int | None,
        remaining_s: float | None = None,
    ):
        """Await under the deadline; expiry is a 504 envelope.

        ``remaining_s`` is what is left of the deadline when the
        request has already spent part of it (the whole deadline when
        ``None``). The awaited engine call runs on the facade's pool;
        cancellation here abandons the await, and the pool thread
        winds down on its own — per-request sessions mean that
        orphaned work cannot corrupt any other request's state.
        """
        if deadline_ms is None:
            return await awaitable
        timeout = deadline_ms / 1e3 if remaining_s is None else remaining_s
        try:
            return await asyncio.wait_for(awaitable, timeout)
        except asyncio.TimeoutError:
            raise ServingError(
                HTTPStatus.GATEWAY_TIMEOUT,
                "deadline_exceeded",
                f"request exceeded its deadline of {deadline_ms} ms",
                details={"deadline_ms": deadline_ms},
            ) from None

    @staticmethod
    def _serialise_result(answer: object) -> dict:
        """A TopKResult or QueryAnswer as the wire answer shape."""
        result = answer if isinstance(answer, TopKResult) else answer.result
        payload = {
            "k": result.k,
            "algorithm": result.algorithm,
            "items": [
                {"obj": item.obj, "grade": item.grade}
                for item in result.items
            ],
            "stats": {
                "sorted": result.stats.sorted_cost,
                "random": result.stats.random_cost,
                "total": result.stats.sum_cost,
            },
        }
        guarantee = getattr(result, "guarantee", None)
        if guarantee is not None:
            payload["guarantee"] = guarantee.as_dict()
        plan = getattr(answer, "plan", None)
        if plan is not None:
            payload["plan"] = plan.explain()
        return payload

    @staticmethod
    def _epsilon_from(payload: dict) -> float | None:
        """The request's ε, validated; None when absent."""
        raw = payload.get("epsilon")
        if raw is None:
            return None
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ServingError(
                HTTPStatus.BAD_REQUEST,
                "invalid_epsilon",
                f"epsilon must be a non-negative number, got {raw!r}",
            )
        try:
            return validate_epsilon(raw)
        except ValueError as exc:
            raise ServingError(
                HTTPStatus.BAD_REQUEST, "invalid_epsilon", str(exc)
            ) from None

    @staticmethod
    def _allow_partial_from(payload: dict) -> bool:
        raw = payload.get("allow_partial", False)
        if not isinstance(raw, bool):
            raise ServingError(
                HTTPStatus.BAD_REQUEST,
                "invalid_request",
                f"allow_partial must be a boolean, got {raw!r}",
            )
        return raw

    def _spec_from(self, payload: dict) -> dict:
        """The query spec shared by /v1/query and /v1/cursor.

        Exactly one of ``query`` (a string, catalog-backed engines) or
        ``aggregation`` (a registered name, source-backed engines)
        selects the workload; the engine's own validation rejects a
        spec aimed at the wrong backing with a clear 400.
        """
        has_query = "query" in payload
        has_aggregation = "aggregation" in payload
        if has_query == has_aggregation:
            raise ServingError(
                HTTPStatus.BAD_REQUEST,
                "invalid_request",
                "exactly one of 'query' (catalog-backed) or "
                "'aggregation' (source-backed) is required",
            )
        spec: dict = {}
        if has_query:
            query = payload["query"]
            if not isinstance(query, str):
                raise ServingError(
                    HTTPStatus.BAD_REQUEST,
                    "invalid_query",
                    f"query must be a string, got {type(query).__name__}",
                )
            spec["query"] = query
        else:
            spec["aggregation"] = resolve_aggregation(payload["aggregation"])
            spec["aggregation_name"] = payload["aggregation"]
        conjunction = payload.get("conjunction")
        if conjunction is not None and not isinstance(conjunction, str):
            raise ServingError(
                HTTPStatus.BAD_REQUEST,
                "invalid_request",
                "conjunction must be a string",
            )
        spec["conjunction"] = conjunction
        return spec

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    async def _healthz(self, request: HttpRequest) -> HttpResponse:
        status = "draining" if self._draining else "ok"
        payload = {
            "status": status,
            "version": __version__,
            "uptime_s": self.metrics.snapshot()["uptime_s"],
        }
        sharded = self.engine.sharding
        if sharded is not None:
            # Liveness of the worker-process pool, not just this
            # interpreter: pool_health pings every pool (off the event
            # loop — it blocks on worker round-trips) and never raises.
            health = await asyncio.get_running_loop().run_in_executor(
                None, sharded.pool_health
            )
            payload["workers"] = {
                "shards": sharded.num_shards,
                **health,
            }
            if not self._draining and health["alive"] < health["processes"]:
                payload["status"] = "degraded"
        return json_response(
            payload,
            HTTPStatus.SERVICE_UNAVAILABLE if self._draining else HTTPStatus.OK,
        )

    async def _metrics(self, request: HttpRequest) -> HttpResponse:
        try:
            engine_metrics = await self.async_engine.metrics_snapshot()
        except ReproError:
            # Post-drain scrape: the facade is closed but the ledger
            # is still a plain locked read.
            engine_metrics = self.engine.metrics_snapshot()
        return json_response(
            {
                "server": self.metrics.snapshot(),
                "admission": self.admission.snapshot(),
                "cursors": self.sessions.snapshot(),
                "engine": engine_metrics,
            }
        )

    async def _query(self, request: HttpRequest) -> HttpResponse:
        payload = request.json_object()
        spec = self._spec_from(payload)
        k = payload.get("k")
        strategy = payload.get("strategy")
        if strategy is not None and not isinstance(strategy, str):
            raise ServingError(
                HTTPStatus.BAD_REQUEST,
                "invalid_strategy",
                "strategy must be a registry name string",
            )
        epsilon = self._epsilon_from(payload)
        allow_partial = self._allow_partial_from(payload)
        deadline_ms = self._deadline_ms(request, payload)
        if allow_partial and strategy is not None:
            raise ServingError(
                HTTPStatus.BAD_REQUEST,
                "invalid_request",
                "allow_partial pages through the anytime cursor, which "
                "cannot honour a forced strategy; drop one of the two",
            )
        if (
            allow_partial
            and deadline_ms is not None
            # Sharded backings have no paging cursors to stop early —
            # the query either completes in time or maps to 504 as
            # without the flag.
            and self.engine.sharding is None
        ):
            return await self._query_partial(spec, k, epsilon, deadline_ms)
        async with self.admission.admit():
            result = await self._bounded(
                self.async_engine.top_k(
                    spec.get("query", spec.get("aggregation")),
                    k=k,
                    strategy=strategy,
                    conjunction=spec["conjunction"],
                    epsilon=epsilon,
                ),
                deadline_ms,
            )
        return json_response(self._serialise_result(result))

    async def _query_partial(
        self, spec: dict, k: int | None, epsilon: float | None, deadline_ms: int
    ) -> HttpResponse:
        """The anytime path: page under the deadline, certify what landed.

        The k answers are pulled as cursor pages, each page awaited
        against the *remaining* budget. Completing every page is the
        exact answer; expiring with pages in hand is a **200** partial
        answer whose ``guarantee`` block is read from the last
        *collected* page — never from the live cursor, whose bounds an
        orphaned in-flight page could still tighten after the timeout,
        which would be unsound for the smaller item set actually
        returned. Expiring with nothing is the plain 504.

        A query whose plan cannot page (a filtered-conjunct or full-scan
        plan: the engine refuses the cursor) is answered whole by
        ``top_k`` under the rest of the budget, in the same admission
        slot, with the envelope ``/v1/query`` returns without the flag:
        a 200 when it completes, a 504 when the deadline expires.
        """
        want = self.engine.context.default_k if k is None else k
        if isinstance(want, bool) or not isinstance(want, int) or want < 1:
            raise ServingError(
                HTTPStatus.BAD_REQUEST,
                "invalid_k",
                f"k must be a positive integer, got {want!r}",
            )
        page_size = max(1, -(-want // 8))
        cursor = self.async_engine.cursor(
            spec.get("query", spec.get("aggregation")),
            conjunction=spec["conjunction"],
            page_size=page_size,
            epsilon=epsilon,
        )
        loop = asyncio.get_running_loop()
        budget_end = loop.time() + deadline_ms / 1e3
        pages: list[TopKResult] = []
        fetched = 0
        timed_out = False
        async with self.admission.admit():
            while fetched < want:
                budget = budget_end - loop.time()
                if budget <= 0:
                    timed_out = True
                    break
                try:
                    page = await asyncio.wait_for(
                        cursor.next_k(min(page_size, want - fetched)),
                        budget,
                    )
                except asyncio.TimeoutError:
                    timed_out = True
                    break
                except PlanningError:
                    if pages:
                        raise
                    result = await self._bounded(
                        self.async_engine.top_k(
                            spec.get("query", spec.get("aggregation")),
                            k=want,
                            conjunction=spec["conjunction"],
                            epsilon=epsilon,
                        ),
                        deadline_ms,
                        remaining_s=max(budget_end - loop.time(), 0.0),
                    )
                    return json_response(self._serialise_result(result))
                pages.append(page)
                fetched += len(page.items)
        if timed_out and not pages:
            raise ServingError(
                HTTPStatus.GATEWAY_TIMEOUT,
                "deadline_exceeded",
                f"request exceeded its deadline of {deadline_ms} ms "
                "before any page completed",
                details={"deadline_ms": deadline_ms, "allow_partial": True},
            )
        items = [item for page in pages for item in page.items]
        stats = pages[0].stats
        for page in pages[1:]:
            stats = stats + page.stats
        last = pages[-1]
        guarantee = (
            last.guarantee.as_dict()
            if last.guarantee is not None
            else {"kind": "anytime", "epsilon": 0.0}
        )
        payload = {
            "k": want,
            "algorithm": last.algorithm,
            "items": [
                {"obj": item.obj, "grade": item.grade} for item in items
            ],
            "stats": {
                "sorted": stats.sorted_cost,
                "random": stats.random_cost,
                "total": stats.sum_cost,
            },
            "partial": timed_out,
            "guarantee": (
                guarantee
                if timed_out
                # Every page landed: the prefix is the complete exact
                # top-k, and the envelope says so.
                else {"kind": "exact", "epsilon": 0.0}
            ),
        }
        if timed_out:
            payload["deadline_ms"] = deadline_ms
            certified = last.details.get("certified")
            if certified is not None:
                payload["bounds"] = certified
        return json_response(payload)

    async def _explain(self, request: HttpRequest) -> HttpResponse:
        query = request.query.get("query")
        if not query:
            raise ServingError(
                HTTPStatus.BAD_REQUEST,
                "invalid_request",
                "explain requires a ?query= parameter",
            )
        conjunction = request.query.get("conjunction")
        deadline_ms = self._deadline_ms(request)
        async with self.admission.admit():
            explanation = await self._bounded(
                self.async_engine.explain(query, conjunction), deadline_ms
            )
        return json_response({"query": query, "explain": explanation})

    async def _cursor_open(self, request: HttpRequest) -> HttpResponse:
        payload = request.json_object()
        spec = self._spec_from(payload)
        page_size = payload.get("page_size")
        if page_size is not None and (
            not isinstance(page_size, int)
            or isinstance(page_size, bool)
            or page_size < 1
        ):
            raise ServingError(
                HTTPStatus.BAD_REQUEST,
                "invalid_page_size",
                f"page_size must be a positive integer, got {page_size!r}",
            )
        epsilon = self._epsilon_from(payload)
        # Opening is lazy (no subsystem work until the first page), so
        # no admission slot is needed — but the session *bound* is
        # enforced here, where the resource is allocated.
        cursor = self.async_engine.cursor(
            spec.get("query", spec.get("aggregation")),
            conjunction=spec["conjunction"],
            page_size=page_size,
            epsilon=epsilon,
        )
        wire_spec = {
            key: value
            for key, value in (
                ("query", spec.get("query")),
                ("aggregation", spec.get("aggregation_name")),
                ("conjunction", spec.get("conjunction")),
                ("page_size", page_size),
                ("epsilon", epsilon),
            )
            if value is not None
        }
        session = self.sessions.create(cursor, wire_spec)
        return json_response(
            {
                "cursor_id": session.id,
                "ttl_s": session.ttl_s,
                "spec": wire_spec,
                "next": f"/v1/cursor/{session.id}/next",
            },
            HTTPStatus.CREATED,
        )

    async def _cursor_next(
        self, request: HttpRequest, cursor_id: str
    ) -> HttpResponse:
        session = self.sessions.get(cursor_id)
        k: int | None = None
        if "k" in request.query:
            try:
                k = int(request.query["k"])
            except ValueError:
                raise ServingError(
                    HTTPStatus.BAD_REQUEST,
                    "invalid_k",
                    f"k must be an integer, got {request.query['k']!r}",
                ) from None
        deadline_ms = self._deadline_ms(request)
        remaining = session.cursor.remaining
        if remaining is not None and remaining <= 0:
            return json_response(
                {
                    "cursor_id": cursor_id,
                    "items": [],
                    "done": True,
                    "remaining": 0,
                    "pages_fetched": session.cursor.pages_fetched,
                    "answers_fetched": session.cursor.answers_fetched,
                }
            )
        async with self.admission.admit():
            page = await self._bounded(
                session.cursor.next_page(k), deadline_ms
            )
        session.pages_served += 1
        remaining = session.cursor.remaining
        envelope = {
            "cursor_id": cursor_id,
            "items": [
                {"obj": item.obj, "grade": item.grade}
                for item in page.items
            ],
            "stats": {
                "sorted": page.stats.sorted_cost,
                "random": page.stats.random_cost,
            },
            "done": remaining is not None and remaining <= 0,
            "remaining": remaining,
            "pages_fetched": session.cursor.pages_fetched,
            "answers_fetched": session.cursor.answers_fetched,
        }
        # The anytime certificate as of *this* page: the guarantee plus
        # the live bound state its threshold was read from.
        if page.guarantee is not None:
            envelope["guarantee"] = page.guarantee.as_dict()
        certified = page.details.get("certified")
        if certified is not None:
            envelope["bounds"] = certified
        return json_response(envelope)

    async def _cursor_describe(
        self, request: HttpRequest, cursor_id: str
    ) -> HttpResponse:
        session = self.sessions.get(cursor_id)
        return json_response(session.describe(time.monotonic()))

    async def _cursor_close(
        self, request: HttpRequest, cursor_id: str
    ) -> HttpResponse:
        session = self.sessions.close(cursor_id)
        return json_response(
            {"closed": session.describe(time.monotonic())}
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    async def shutdown(self, grace_s: float | None = None) -> dict:
        """Graceful drain: refuse new work, finish in-flight, close.

        Returns a summary dict (used by the CLI's exit log and the
        integration tests). Idempotent.
        """
        if self._drained.is_set():
            return {"already_drained": True}
        self._draining = True
        grace = self.config.drain_grace_s if grace_s is None else grace_s
        forced = False
        try:
            await asyncio.wait_for(self.admission.drain(), grace)
        except asyncio.TimeoutError:
            forced = True
        cursors_closed = self.sessions.drain()
        await self.async_engine.aclose()
        self._drained.set()
        return {
            "forced": forced,
            "cursors_closed": cursors_closed,
            "requests_total": self.metrics.snapshot()["requests_total"],
        }
