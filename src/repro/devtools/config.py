"""Checker configuration: rule scopes, allowlists, and the baseline.

Everything is optional — the rule pack ships with the scopes DESIGN.md
documents — and a single TOML file (``devtools.toml`` at the repo
root by default) can override scopes, extend allowlists, and carry the
baseline/suppression entries::

    [rules.RPR001]
    paths = ["repro/algorithms/", "repro/engine/adaptive.py"]
    allow-within = ["QueryTrace.span"]

    [[suppressions]]
    rule = "RPR002"
    path = "src/repro/serving/metrics.py"
    symbol = "ServerMetrics.request_finished"
    reason = "prune runs on the snapshot thread only, measured 2026-08"

Suppressions match on ``(rule, path, symbol)`` so they survive line
shifts; ``reason`` is mandatory (a baseline entry is a documented
debt, not a mute button). Entries that match nothing in a full run are
reported as stale (``DT003``).

Path patterns are POSIX fragments matched on segment boundaries:
``repro/algorithms/`` scopes a package, ``repro/core/certify.py`` a
single file.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

__all__ = [
    "CheckConfig",
    "ConfigError",
    "RuleConfig",
    "Suppression",
    "path_matches",
]


class ConfigError(Exception):
    """The TOML file exists but cannot be used."""


def path_matches(rel: str, pattern: str) -> bool:
    """Segment-anchored match of ``pattern`` against a relative path."""
    rel = rel.replace("\\", "/").strip("/")
    pattern = pattern.replace("\\", "/").strip("/")
    if not pattern:
        return False
    if pattern.endswith(".py"):
        return rel == pattern or rel.endswith("/" + pattern)
    padded = "/" + rel + "/"
    return padded.startswith("/" + pattern + "/") or (
        "/" + pattern + "/" in padded
    )


def path_in_any(rel: str, patterns: Iterable[str]) -> bool:
    return any(path_matches(rel, p) for p in patterns)


@dataclass(slots=True)
class RuleConfig:
    """Scope and knobs for one rule."""

    #: Path fragments the rule applies to; empty = everywhere.
    paths: tuple[str, ...] = ()
    #: Path fragments the rule never applies to.
    exclude: tuple[str, ...] = ()
    #: Enclosing-symbol globs whose findings are waived (telemetry
    #: call sites and similar — the documented escape hatch).
    allow_within: tuple[str, ...] = ()
    #: Rule-specific options (e.g. RPR005's protected attribute names).
    options: dict[str, object] = field(default_factory=dict)

    def applies_to(self, rel_path: str) -> bool:
        if self.paths and not path_in_any(rel_path, self.paths):
            return False
        return not path_in_any(rel_path, self.exclude)


@dataclass(slots=True)
class Suppression:
    """One baseline entry; matches on (rule, path, symbol)."""

    rule: str
    path: str
    symbol: str
    reason: str
    used: bool = field(default=False)

    def matches(self, rule: str, rel_path: str, symbol: str) -> bool:
        return (
            self.rule == rule
            and path_matches(rel_path, self.path)
            and self.symbol == symbol
        )


def _default_rule_configs() -> dict[str, RuleConfig]:
    # The shipped scopes; devtools.toml can override any entry.
    # Imported lazily to avoid a cycle (rules import config helpers).
    from repro.devtools.rules import ALL_RULES

    return {
        rule.rule_id: RuleConfig(
            paths=tuple(rule.default_paths),
            exclude=tuple(rule.default_exclude),
            options=dict(rule.default_options),
        )
        for rule in ALL_RULES
    }


class CheckConfig:
    """Merged defaults + TOML overrides + suppressions."""

    def __init__(
        self,
        rules: Mapping[str, RuleConfig] | None = None,
        suppressions: Iterable[Suppression] = (),
    ) -> None:
        self.rules = dict(rules) if rules is not None else _default_rule_configs()
        self.suppressions = list(suppressions)

    def rule_config(self, rule_id: str) -> RuleConfig:
        return self.rules.setdefault(rule_id, RuleConfig())

    def suppressed(self, rule: str, rel_path: str, symbol: str) -> bool:
        hit = False
        for entry in self.suppressions:
            if entry.reason and entry.matches(rule, rel_path, symbol):
                entry.used = True
                hit = True
        return hit

    def stale_suppressions(self) -> list[Suppression]:
        return [s for s in self.suppressions if not s.used]

    @classmethod
    def load(cls, path: str | Path | None) -> "CheckConfig":
        """Defaults when ``path`` is None; else defaults + overrides."""
        config = cls()
        if path is None:
            return config
        path = Path(path)
        try:
            with path.open("rb") as handle:
                data = tomllib.load(handle)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"invalid TOML in {path}: {exc}") from None
        return config.merge(data, source=str(path))

    def merge(self, data: Mapping, source: str = "<config>") -> "CheckConfig":
        rules = data.get("rules", {})
        if not isinstance(rules, Mapping):
            raise ConfigError(f"{source}: [rules] must be a table")
        for rule_id, raw in rules.items():
            if not isinstance(raw, Mapping):
                raise ConfigError(f"{source}: [rules.{rule_id}] must be a table")
            entry = self.rule_config(str(rule_id))
            if "paths" in raw:
                entry.paths = _str_tuple(raw["paths"], source, rule_id, "paths")
            if "exclude" in raw:
                entry.exclude = _str_tuple(raw["exclude"], source, rule_id, "exclude")
            if "allow-within" in raw:
                entry.allow_within = entry.allow_within + _str_tuple(
                    raw["allow-within"], source, rule_id, "allow-within"
                )
            for key, value in raw.items():
                if key not in {"paths", "exclude", "allow-within"}:
                    entry.options[key.replace("-", "_")] = value
        for raw in data.get("suppressions", ()):
            if not isinstance(raw, Mapping):
                raise ConfigError(f"{source}: suppressions must be tables")
            try:
                entry = Suppression(
                    rule=str(raw["rule"]),
                    path=str(raw["path"]),
                    symbol=str(raw["symbol"]),
                    reason=str(raw.get("reason", "")).strip(),
                )
            except KeyError as exc:
                raise ConfigError(
                    f"{source}: suppression missing key {exc}"
                ) from None
            if not entry.reason:
                raise ConfigError(
                    f"{source}: suppression for {entry.rule} at "
                    f"{entry.path}:{entry.symbol} needs a reason"
                )
            self.suppressions.append(entry)
        return self


def _str_tuple(value: object, source: str, rule_id: object, key: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ConfigError(f"{source}: [rules.{rule_id}] {key} must be a string list")
