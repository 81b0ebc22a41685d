"""Meta-test: the committed source tree is clean under the committed
config — the same gate the CI `contracts` job enforces."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.check import run_check
from repro.devtools.config import CheckConfig

from _checker_utils import REPO_ROOT


def test_src_tree_is_clean_under_committed_config() -> None:
    config = CheckConfig.load(REPO_ROOT / "devtools.toml")
    result = run_check([REPO_ROOT / "src"], config, root=REPO_ROOT)
    assert result.findings == [], "\n" + result.format_text()
    # Sanity: the walk actually covered the tree.
    assert result.files_checked > 90


def test_engine_reads_no_clock_even_without_an_allowlist() -> None:
    """With RPR001's allowlist emptied, the engine package is still
    clean: no waiver hides a clock read in the planning path."""
    config = CheckConfig.load(REPO_ROOT / "devtools.toml")
    config.rules["RPR001"].allow_within = ()
    result = run_check(
        [REPO_ROOT / "src" / "repro" / "engine"], config, root=REPO_ROOT
    )
    assert result.findings == [], "\n" + result.format_text()
    assert result.files_checked > 5


def test_every_rule_scope_touches_existing_paths() -> None:
    """Scopes reference real paths, so a future tree reshuffle cannot
    silently turn a rule into a no-op."""
    config = CheckConfig.load(REPO_ROOT / "devtools.toml")
    src = REPO_ROOT / "src"
    for rule_id, rule_config in sorted(config.rules.items()):
        for fragment in rule_config.paths:
            anchored = Path(str(src / fragment))
            assert anchored.exists(), (
                f"{rule_id} scope {fragment!r} matches nothing under src/"
            )
