"""RPR001 — determinism: replay-scoped code reads no entropy.

PR 8's contract (DESIGN.md "Adaptive planning"): adaptive decisions
are a pure function of the query sequence, so replays are
bit-identical; PR 9 extended the same promise to certified results.
The scoped modules — ``algorithms/``, ``engine/adaptive.py``,
``core/certify.py`` — therefore must not read wall-clock time, global
random state, OS entropy, or anything else that varies run to run.

Flagged:

* wall-clock reads: ``time.time/monotonic/perf_counter/…`` (and their
  ``_ns`` variants), ``datetime.now/utcnow/today``;
* global or unseeded randomness: any ``random.<fn>()`` on the module's
  shared state, ``random.Random()`` with no seed, ``SystemRandom``,
  ``numpy.random.<legacy fn>``, ``numpy.random.default_rng()`` with no
  seed, ``os.urandom``, ``uuid.uuid1/uuid4``, anything in ``secrets``;
* hash-order-dependent iteration: a ``for`` loop or comprehension
  driven directly by a set display or ``set(…)``/``frozenset(…)``
  call — set iteration order depends on ``PYTHONHASHSEED``.

Allowed without comment: ``random.Random(seed)`` *with* a seed and
``numpy.random.default_rng(seed)`` — deterministic by construction.
Telemetry-only call sites are waived via the config's
``allow-within`` qualname globs (e.g. a tracer that times spans for
reports but never feeds a decision).
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Iterator

from repro.devtools.config import RuleConfig
from repro.devtools.findings import Finding
from repro.devtools.visitor import ModuleInfo, Rule, iter_with_symbol

__all__ = ["DeterminismRule"]

_TIME_FNS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "thread_time",
    "thread_time_ns", "localtime", "gmtime",
}
_DATETIME_FNS = {"now", "utcnow", "today"}
_UUID_FNS = {"uuid1", "uuid4"}
#: numpy.random functions that are deterministic given an explicit seed.
_NP_SEEDED_OK = {"default_rng", "Generator", "SeedSequence", "PCG64", "MT19937"}


def _has_seed(call: ast.Call) -> bool:
    return bool(call.args) or bool(call.keywords)


class DeterminismRule(Rule):
    rule_id = "RPR001"
    summary = (
        "replay-scoped code must not read wall-clock, global randomness, "
        "OS entropy, or set iteration order"
    )
    default_paths = (
        "repro/algorithms/",
        "repro/engine/adaptive.py",
        "repro/core/certify.py",
    )

    def check(
        self, module: ModuleInfo, config: RuleConfig
    ) -> Iterator[Finding]:
        for node, symbol, _classes in iter_with_symbol(module.tree):
            if any(fnmatchcase(symbol, pat) for pat in config.allow_within):
                continue
            if isinstance(node, ast.Call):
                message = self._classify_call(module, node)
                if message is not None:
                    yield self.finding(module, node, message, symbol)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(
                    module, node.iter, symbol
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    yield from self._check_iteration(
                        module, gen.iter, symbol
                    )

    # ------------------------------------------------------------------

    def _classify_call(
        self, module: ModuleInfo, call: ast.Call
    ) -> str | None:
        target = module.resolve_call(call.func)
        if target is None:
            return None
        head, _, tail = target.partition(".")
        if head == "time" and tail in _TIME_FNS:
            return (
                f"wall-clock read `{target}()` in replay-scoped code — "
                "decisions must be a pure function of the query sequence"
            )
        if head == "datetime" and target.rsplit(".", 1)[-1] in _DATETIME_FNS:
            return f"wall-clock read `{target}()` in replay-scoped code"
        if target == "os.urandom":
            return "`os.urandom()` reads OS entropy — not replayable"
        if head == "secrets":
            return f"`{target}()` reads OS entropy — not replayable"
        if head == "uuid" and tail in _UUID_FNS:
            return (
                f"`{target}()` derives from clock/entropy — not replayable"
            )
        if target == "random.Random":
            if _has_seed(call):
                return None  # seeded Random is deterministic
            return (
                "`random.Random()` without a seed draws from OS entropy — "
                "pass an explicit seed"
            )
        if target in ("random.SystemRandom", "secrets.SystemRandom"):
            return "`SystemRandom` reads OS entropy — not replayable"
        if head == "random" and tail:
            return (
                f"`{target}()` uses the process-global random state — "
                "thread a seeded `random.Random` through instead"
            )
        if target.startswith("numpy.random."):
            fn = target.rsplit(".", 1)[-1]
            if fn in _NP_SEEDED_OK:
                if _has_seed(call):
                    return None
                return (
                    f"`{target}()` without a seed draws from OS entropy — "
                    "pass an explicit seed"
                )
            return (
                f"`{target}()` uses numpy's global random state — "
                "use a seeded `numpy.random.default_rng` instead"
            )
        return None

    def _check_iteration(
        self, module: ModuleInfo, iter_node: ast.AST, symbol: str
    ) -> Iterator[Finding]:
        if isinstance(iter_node, ast.Set) or (
            isinstance(iter_node, ast.SetComp)
        ):
            yield self.finding(
                module, iter_node,
                "iteration over a set display is hash-order-dependent — "
                "sort it or use a sequence",
                symbol,
            )
            return
        if isinstance(iter_node, ast.Call) and isinstance(
            iter_node.func, ast.Name
        ):
            callee = iter_node.func.id
            if callee in ("set", "frozenset") and callee not in (
                module.from_imports
            ) and callee not in module.module_aliases:
                yield self.finding(
                    module, iter_node,
                    f"iteration over `{callee}(…)` is hash-order-"
                    "dependent — wrap it in `sorted(…)` or keep a list",
                    symbol,
                )
