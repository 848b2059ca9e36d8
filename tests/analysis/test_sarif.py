"""SARIF 2.1.0 emission: document shape, ruleIndex consistency, and the
structural validator that gates the CI artifact; plus the noqa audit CLI."""

import copy
import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.linter import Finding
from repro.analysis.rules import RULES
from repro.analysis.sarif import (SARIF_SCHEMA, SARIF_VERSION, render_sarif,
                                  to_sarif, validate_sarif)

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

FINDINGS = [
    Finding(rule="REP004", path="pkg/mod.py", line=4, col=0,
            message="iteration over an unordered container"),
    Finding(rule="REP001", path="pkg/other.py", line=2, col=4,
            message="wall clock in simulation code"),
]


def test_document_has_required_members():
    doc = to_sarif(FINDINGS)
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert doc["$schema"] == SARIF_SCHEMA
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-analysis"
    assert len(run["results"]) == 2


def test_rule_catalogue_covers_every_rule():
    doc = to_sarif([])
    listed = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert set(listed) >= set(RULES)
    assert set(listed) >= {f"REP00{i}" for i in range(1, 8)}


def test_rule_index_is_consistent():
    doc = to_sarif(FINDINGS)
    run = doc["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    for result in run["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


def test_locations_are_one_based():
    doc = to_sarif(FINDINGS)
    regions = [r["locations"][0]["physicalLocation"]["region"]
               for r in doc["runs"][0]["results"]]
    assert regions[0]["startLine"] == 4 and regions[0]["startColumn"] == 1
    assert regions[1]["startLine"] == 2 and regions[1]["startColumn"] == 5


def test_emitted_documents_self_validate():
    assert validate_sarif(to_sarif(FINDINGS)) == []
    assert validate_sarif(to_sarif([])) == []
    assert validate_sarif(json.loads(render_sarif(FINDINGS))) == []


def test_validator_rejects_broken_documents():
    good = to_sarif(FINDINGS)

    bad = copy.deepcopy(good)
    bad["version"] = "2.0.0"
    assert any("version" in e for e in validate_sarif(bad))

    bad = copy.deepcopy(good)
    bad["runs"][0]["results"][0]["ruleIndex"] = 10_000
    assert validate_sarif(bad)

    bad = copy.deepcopy(good)
    del bad["runs"][0]["results"][0]["message"]
    assert validate_sarif(bad)

    bad = copy.deepcopy(good)
    bad["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
        "region"]["startLine"] = 0
    assert validate_sarif(bad)

    assert validate_sarif({}) != []


def _cli(*argv, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        cwd=cwd, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})


def test_cli_sarif_output_validates(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(textwrap.dedent('''
        def tally(items, seen=[]):
            for v in {1, 2}:
                seen.append(v)
            return seen
    '''))
    out = tmp_path / "out.sarif"
    proc = _cli("lint", "--no-config", "--format", "sarif",
                "-o", str(out), str(bad))
    assert proc.returncode == 1  # findings present
    doc = json.loads(out.read_text())
    assert validate_sarif(doc) == []
    assert [r["ruleId"] for r in doc["runs"][0]["results"]] \
        == ["REP005", "REP004"]


def test_cli_sarif_shared_across_rule_families(tmp_path):
    # One artifact covers the AST rules (REP001..REP006) and the
    # yield-atomicity rule (REP007) even when --select runs one of
    # them: same tool name, full rule catalogue.
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    proc = _cli("lint", "--no-config", "--select", "REP001",
                "--format", "sarif", str(bad))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert validate_sarif(doc) == []
    ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert ids == [f"REP00{i}" for i in range(1, 8)]


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
