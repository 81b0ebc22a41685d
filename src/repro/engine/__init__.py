"""The unified execution engine: one fluent entry point, pluggable
strategies, result cursors, and batch execution.

    from repro.engine import Engine
    engine = Engine.over(independent_database(2, 10_000, seed=0))
    result = engine.query(MINIMUM).top(10)

Exports are loaded lazily (PEP 562) so that algorithm modules can
import :mod:`repro.engine.registry` at class-definition time to
self-register without creating an import cycle through the middleware.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

__all__ = [
    "Engine",
    "AsyncEngine",
    "AsyncResultCursor",
    "QueryBuilder",
    "ExecutionContext",
    "ResultCursor",
    "BatchResult",
    "StrategyCapabilities",
    "StrategyRegistration",
    "StrategyChoice",
    "UnknownStrategyError",
    "register_strategy",
    "create_strategy",
    "available_strategies",
    "capable_strategies",
    "select_strategy",
]

_EXPORTS = {
    "Engine": "repro.engine.engine",
    "AsyncEngine": "repro.engine.async_engine",
    "AsyncResultCursor": "repro.engine.async_engine",
    "QueryBuilder": "repro.engine.builder",
    "ExecutionContext": "repro.engine.context",
    "ResultCursor": "repro.engine.cursor",
    "BatchResult": "repro.engine.batch",
    "StrategyCapabilities": "repro.engine.registry",
    "StrategyRegistration": "repro.engine.registry",
    "StrategyChoice": "repro.engine.registry",
    "UnknownStrategyError": "repro.engine.registry",
    "register_strategy": "repro.engine.registry",
    "create_strategy": "repro.engine.registry",
    "available_strategies": "repro.engine.registry",
    "capable_strategies": "repro.engine.registry",
    "select_strategy": "repro.engine.registry",
}

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from repro.engine.async_engine import AsyncEngine, AsyncResultCursor
    from repro.engine.batch import BatchResult
    from repro.engine.builder import QueryBuilder
    from repro.engine.context import ExecutionContext
    from repro.engine.cursor import ResultCursor
    from repro.engine.engine import Engine
    from repro.engine.registry import (
        StrategyCapabilities,
        StrategyChoice,
        StrategyRegistration,
        UnknownStrategyError,
        available_strategies,
        capable_strategies,
        create_strategy,
        register_strategy,
        select_strategy,
    )


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.engine' has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
