"""Server-side cursor sessions: paging state with a TTL.

Section 4's "continue where we left off" is a *stateful* contract —
a cursor owns incremental Fagin bookkeeping and live sources. Over
HTTP that state must live server-side between requests, which makes it
a resource to account for and bound:

* every open cursor is a :class:`CursorSession` with an opaque id;
* sessions idle past their TTL are evicted by the server's sweeper (a
  later request for the id gets 410 Gone, distinguishable from a
  never-existed 404 only by phrasing — ids are unguessable either way);
* the live-session count is bounded (503 on exhaustion: cursors hold
  memory, so creating one is subject to load shedding like any work);
* graceful shutdown drains the store, ending every session.

The store mutates only on the server's event loop, so plain dicts
suffice; the clock is injectable for tests.
"""

from __future__ import annotations

import secrets
import time
from dataclasses import dataclass, field
from http import HTTPStatus

from repro.engine.async_engine import AsyncResultCursor
from repro.serving.protocol import ServingError

__all__ = ["CursorSession", "CursorSessionStore"]


@dataclass
class CursorSession:
    """One live server-side paging session."""

    id: str
    cursor: AsyncResultCursor
    spec: dict
    ttl_s: float
    created_at: float
    last_used: float
    pages_served: int = 0
    details: dict = field(default_factory=dict)

    def expired(self, now: float) -> bool:
        return now - self.last_used > self.ttl_s

    def describe(self, now: float) -> dict:
        guarantee = self.cursor.guarantee
        return {
            "cursor_id": self.id,
            "spec": self.spec,
            "ttl_s": self.ttl_s,
            "idle_s": round(now - self.last_used, 3),
            "age_s": round(now - self.created_at, 3),
            "pages_served": self.pages_served,
            "pages_fetched": self.cursor.pages_fetched,
            "answers_fetched": self.cursor.answers_fetched,
            "remaining": self.cursor.remaining,
            # The active anytime certificate (None before the first
            # page): what the answers fetched so far are worth, and
            # the certified cap on everything still unfetched.
            "guarantee": None if guarantee is None else guarantee.as_dict(),
            "bounds": self.cursor.live_bounds(),
        }


class CursorSessionStore:
    """Bounded TTL map of cursor ids to live sessions."""

    def __init__(
        self,
        *,
        ttl_s: float = 300.0,
        max_sessions: int = 256,
        clock=time.monotonic,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be > 0, got {ttl_s}")
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.ttl_s = ttl_s
        self.max_sessions = max_sessions
        self._clock = clock
        self._sessions: dict[str, CursorSession] = {}
        self.created_total = 0
        self.expired_total = 0
        self.closed_total = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def create(self, cursor: AsyncResultCursor, spec: dict) -> CursorSession:
        self.evict_expired()
        if len(self._sessions) >= self.max_sessions:
            raise ServingError(
                HTTPStatus.SERVICE_UNAVAILABLE,
                "too_many_cursors",
                f"cursor-session limit reached ({self.max_sessions}); "
                "close or let idle sessions expire, then retry",
                retry_after_s=self.ttl_s,
            )
        now = self._clock()
        session = CursorSession(
            id=secrets.token_hex(8),
            cursor=cursor,
            spec=spec,
            ttl_s=self.ttl_s,
            created_at=now,
            last_used=now,
        )
        self._sessions[session.id] = session
        self.created_total += 1
        return session

    def get(self, cursor_id: str) -> CursorSession:
        """The live session for ``cursor_id``; touching refreshes TTL."""
        session = self._sessions.get(cursor_id)
        if session is None:
            raise ServingError(
                HTTPStatus.NOT_FOUND,
                "unknown_cursor",
                f"no cursor session {cursor_id!r} (never created, "
                "already closed, or expired and swept)",
            )
        now = self._clock()
        if session.expired(now):
            del self._sessions[cursor_id]
            self.expired_total += 1
            raise ServingError(
                HTTPStatus.GONE,
                "cursor_expired",
                f"cursor session {cursor_id!r} expired after "
                f"{session.ttl_s:g}s idle",
            )
        session.last_used = now
        return session

    def close(self, cursor_id: str) -> CursorSession:
        """Remove and return the session (404/410 mapped via :meth:`get`)."""
        session = self.get(cursor_id)
        del self._sessions[cursor_id]
        self.closed_total += 1
        return session

    def evict_expired(self) -> int:
        """Drop every expired session; returns how many were evicted."""
        now = self._clock()
        expired = [
            cursor_id
            for cursor_id, session in self._sessions.items()
            if session.expired(now)
        ]
        for cursor_id in expired:
            del self._sessions[cursor_id]
        self.expired_total += len(expired)
        return len(expired)

    def drain(self) -> int:
        """Close every live session (graceful shutdown)."""
        count = len(self._sessions)
        self._sessions.clear()
        self.closed_total += count
        return count

    def snapshot(self) -> dict:
        return {
            "active": len(self._sessions),
            "max_sessions": self.max_sessions,
            "ttl_s": self.ttl_s,
            "created_total": self.created_total,
            "expired_total": self.expired_total,
            "closed_total": self.closed_total,
        }

    def __repr__(self) -> str:
        return (
            f"CursorSessionStore({len(self._sessions)}/{self.max_sessions} "
            f"active, ttl={self.ttl_s:g}s)"
        )
