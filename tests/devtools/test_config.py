"""Config loading, scope matching, and validation errors."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.config import (
    CheckConfig,
    ConfigError,
    RuleConfig,
    path_matches,
)


class TestPathMatches:
    def test_package_fragment(self) -> None:
        assert path_matches("src/repro/algorithms/fa.py", "repro/algorithms")
        assert path_matches("src/repro/algorithms/fa.py", "repro/algorithms/")
        assert not path_matches("src/repro/engine/engine.py", "repro/algorithms")

    def test_file_fragment(self) -> None:
        assert path_matches(
            "src/repro/core/certify.py", "repro/core/certify.py"
        )
        assert not path_matches(
            "src/repro/core/certify.py", "repro/core/grades.py"
        )
        assert path_matches("baseline_suppressed.py", "baseline_suppressed.py")

    def test_no_substring_false_positives(self) -> None:
        # "repro/core" must not match "repro/core_extra".
        assert not path_matches("src/repro/core_extra/x.py", "repro/core")
        assert not path_matches("src/repro/x/yrepro/core/x.py", "xrepro/core")


class TestRuleConfig:
    def test_empty_paths_means_everywhere(self) -> None:
        config = RuleConfig()
        assert config.applies_to("anything/at/all.py")

    def test_exclude_wins(self) -> None:
        config = RuleConfig(paths=("repro/",), exclude=("repro/access/",))
        assert config.applies_to("src/repro/engine/engine.py")
        assert not config.applies_to("src/repro/access/columnar.py")


class TestLoad:
    def test_defaults_without_file(self) -> None:
        config = CheckConfig.load(None)
        assert set(config.rules) == {
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005"
        }
        assert config.suppressions == []

    def test_missing_file_is_an_error(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigError, match="not found"):
            CheckConfig.load(tmp_path / "nope.toml")

    def test_invalid_toml_is_an_error(self, tmp_path: Path) -> None:
        bad = tmp_path / "devtools.toml"
        bad.write_text("rules = [broken\n")
        with pytest.raises(ConfigError, match="invalid TOML"):
            CheckConfig.load(bad)

    def test_scope_override_and_allowlist_merge(self, tmp_path: Path) -> None:
        toml = tmp_path / "devtools.toml"
        toml.write_text(
            '[rules.RPR001]\n'
            'paths = ["repro/engine/engine.py"]\n'
            'allow-within = ["Engine._execute"]\n'
        )
        config = CheckConfig.load(toml)
        rule = config.rules["RPR001"]
        assert rule.paths == ("repro/engine/engine.py",)
        assert "Engine._execute" in rule.allow_within

    def test_rule_options_pass_through(self, tmp_path: Path) -> None:
        toml = tmp_path / "devtools.toml"
        toml.write_text(
            '[rules.RPR005]\n'
            'protected-attrs = ["_columns", "_orders", "_grades"]\n'
        )
        config = CheckConfig.load(toml)
        assert config.rules["RPR005"].options["protected_attrs"] == [
            "_columns", "_orders", "_grades",
        ]

    def test_suppression_requires_reason(self, tmp_path: Path) -> None:
        toml = tmp_path / "devtools.toml"
        toml.write_text(
            "[[suppressions]]\n"
            'rule = "RPR001"\n'
            'path = "x.py"\n'
            'symbol = "f"\n'
        )
        with pytest.raises(ConfigError, match="needs a reason"):
            CheckConfig.load(toml)

    def test_suppression_requires_all_keys(self, tmp_path: Path) -> None:
        toml = tmp_path / "devtools.toml"
        toml.write_text('[[suppressions]]\nrule = "RPR001"\n')
        with pytest.raises(ConfigError, match="missing key"):
            CheckConfig.load(toml)

    def test_committed_repo_config_loads(self, repo_root: Path) -> None:
        config = CheckConfig.load(repo_root / "devtools.toml")
        assert "repro/engine/engine.py" in config.rules["RPR001"].paths
        assert config.rules["RPR001"].allow_within == ()
