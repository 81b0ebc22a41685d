"""Wire types of the serving layer: requests, responses, error envelopes.

Transport-independent on purpose: :class:`~repro.serving.app.ServingApp`
consumes :class:`HttpRequest` and produces :class:`HttpResponse`, and
the asyncio socket transport in :mod:`repro.serving.server` is just one
way to mint the former and flush the latter — unit tests drive the app
directly with hand-built requests.

Every error the server emits uses one structured JSON envelope::

    {"error": {"code": "deadline_exceeded", "status": 504,
               "message": "...", ...}}

so clients can branch on ``code`` without parsing prose. Server-side,
any handler can abort with :class:`ServingError`; the app maps it (and
the library's own :class:`~repro.exceptions.ReproError` family) onto
the envelope.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Mapping

from repro.core.aggregation import AggregationFunction
from repro.core.means import (
    ARITHMETIC_MEAN,
    GEOMETRIC_MEAN,
    HARMONIC_MEAN,
)
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import ALGEBRAIC_PRODUCT, MINIMUM
from repro.exceptions import ReproError

__all__ = [
    "NAMED_AGGREGATIONS",
    "HttpRequest",
    "HttpResponse",
    "ServingError",
    "error_response",
    "json_response",
    "resolve_aggregation",
]

#: Aggregations addressable by name over the wire (source-backed
#: engines take an :class:`AggregationFunction`, and HTTP clients can
#: only send strings). MEDIAN is deliberately absent: it is not
#: strict, so the auto-selected strategies differ per arity — callers
#: who need it run the library directly.
NAMED_AGGREGATIONS: Mapping[str, AggregationFunction] = {
    "min": MINIMUM,
    "max": MAXIMUM,
    "mean": ARITHMETIC_MEAN,
    "geometric-mean": GEOMETRIC_MEAN,
    "harmonic-mean": HARMONIC_MEAN,
    "product": ALGEBRAIC_PRODUCT,
}


class ServingError(ReproError):
    """A request-scoped failure with a definite HTTP mapping.

    Handlers raise it; the app converts it to the JSON error envelope.
    ``retry_after_s`` adds a ``Retry-After`` header (shedding).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retry_after_s: float | None = None,
        details: Mapping[str, object] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s
        self.details = dict(details) if details else None


@dataclass(frozen=True)
class HttpRequest:
    """One parsed HTTP request, as the app sees it."""

    method: str
    path: str
    query: Mapping[str, str] = field(default_factory=dict)
    headers: Mapping[str, str] = field(default_factory=dict)  # lower-cased keys
    body: bytes = b""

    def json(self) -> object:
        """The body as JSON; 400-enveloped :class:`ServingError` if not."""
        if not self.body:
            raise ServingError(
                HTTPStatus.BAD_REQUEST, "missing_body",
                "this endpoint requires a JSON request body",
            )
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise ServingError(
                HTTPStatus.BAD_REQUEST, "invalid_json",
                f"request body is not valid JSON: {exc}",
            ) from None
        except RecursionError:
            raise ServingError(
                HTTPStatus.BAD_REQUEST, "invalid_json",
                "request body nests deeper than the decoder's limit",
            ) from None

    def json_object(self) -> dict:
        """The body as a JSON *object* (the common case)."""
        payload = self.json()
        if not isinstance(payload, dict):
            raise ServingError(
                HTTPStatus.BAD_REQUEST, "invalid_request",
                "request body must be a JSON object",
            )
        return payload


@dataclass(frozen=True)
class HttpResponse:
    """One response: status + JSON-encoded body + extra headers."""

    status: int
    body: bytes
    headers: tuple[tuple[str, str], ...] = ()

    @property
    def reason(self) -> str:
        try:
            return HTTPStatus(self.status).phrase
        except ValueError:  # pragma: no cover - non-standard status
            return "Unknown"


def json_response(
    payload: object,
    status: int = HTTPStatus.OK,
    headers: tuple[tuple[str, str], ...] = (),
) -> HttpResponse:
    """A response carrying ``payload`` as JSON.

    Object ids may be arbitrary hashables; anything the encoder does
    not know is serialised via ``str`` so an exotic id degrades to its
    repr instead of a 500.
    """
    body = json.dumps(payload, default=str).encode("utf-8")
    return HttpResponse(status=int(status), body=body, headers=headers)


def error_response(error: ServingError) -> HttpResponse:
    """``error`` as the structured JSON envelope."""
    envelope: dict[str, object] = {
        "code": error.code,
        "status": int(error.status),
        "message": error.message,
    }
    if error.retry_after_s is not None:
        envelope["retry_after_s"] = error.retry_after_s
    if error.details:
        envelope["details"] = error.details
    headers: tuple[tuple[str, str], ...] = ()
    if error.retry_after_s is not None:
        # Retry-After is delta-seconds and integral per RFC 9110;
        # round sub-second shed hints up so "0" never tells a client
        # to hammer straight back.
        headers = (("Retry-After", str(max(1, round(error.retry_after_s)))),)
    return json_response({"error": envelope}, error.status, headers)


def resolve_aggregation(name: object) -> AggregationFunction:
    """The named aggregation, or a 400-enveloped error."""
    if not isinstance(name, str):
        raise ServingError(
            HTTPStatus.BAD_REQUEST, "invalid_aggregation",
            f"aggregation must be a string, got {type(name).__name__}",
        )
    aggregation = NAMED_AGGREGATIONS.get(name)
    if aggregation is None:
        raise ServingError(
            HTTPStatus.BAD_REQUEST, "unknown_aggregation",
            f"unknown aggregation {name!r}; "
            f"one of {sorted(NAMED_AGGREGATIONS)}",
        )
    return aggregation
