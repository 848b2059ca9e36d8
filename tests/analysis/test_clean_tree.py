"""The shipped tree passes its own determinism linter and CLI."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.config import load_config

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        cwd=REPO, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})


def test_shipped_tree_has_zero_findings():
    findings = lint_paths([str(SRC)], load_config(REPO / "pyproject.toml"))
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_lint_exits_zero_on_clean_tree():
    proc = _cli("lint", str(SRC))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_lint_flags_and_reports_json(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    proc = _cli("lint", "--json", "--no-config", str(bad))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert [f["rule"] for f in payload] == ["REP001"]


def test_cli_rules_lists_all_rules():
    proc = _cli("rules")
    assert proc.returncode == 0
    for rule_id in ("REP001", "REP002", "REP003", "REP004", "REP005",
                    "REP006"):
        assert rule_id in proc.stdout


def test_cli_show_suppressed_audits_justifications(tmp_path):
    mod = tmp_path / "supp.py"
    mod.write_text(textwrap.dedent('''
        import time
        a = time.time()  # noqa: REP001 -- fixture clock, not sim state
        b = time.time()  # noqa: REP001
    '''))
    proc = _cli("lint", "--no-config", "--show-suppressed", str(mod))
    assert proc.returncode == 0
    assert "fixture clock, not sim state" in proc.stdout
    assert "2 suppression(s), 1 without a justification" in proc.stdout


def test_shipped_tree_suppressions_are_justified():
    # Every noqa in the shipped tree must say *why*.
    proc = _cli("lint", "--show-suppressed", str(SRC))
    assert proc.returncode == 0
    assert ", 0 without a justification" in proc.stdout
