"""SARIF 2.1.0 output for every analysis rule (REP001..REP007).

One reporter for the determinism linter, so CI uploads a single
artifact and annotates PRs inline.  :func:`to_sarif` builds the document;
:func:`validate_sarif` structurally checks it against the parts of the
2.1.0 schema we emit (CI asserts this before upload, and the tests
assert it on every shape of result set).

The document is minimal but complete: one ``run`` with a ``tool.driver``
carrying the full rule catalogue (id, shortDescription, fullDescription,
help), and one ``result`` per finding referencing its rule by id and
index with a physical location.  Paths are emitted as relative URIs,
which is what GitHub code scanning expects for inline annotation.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence

from .linter import Finding
from .rules import RULES

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA", "to_sarif", "render_sarif",
           "validate_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

_TOOL_NAME = "repro-analysis"


def _rule_descriptor(rule_id: str) -> Dict:
    rule = RULES.get(rule_id)
    if rule is None:
        # REP000 (syntax error) and future IDs: a stub descriptor keeps
        # ruleIndex references valid.
        return {"id": rule_id,
                "shortDescription": {"text": rule_id}}
    return {
        "id": rule.id,
        "shortDescription": {"text": rule.summary},
        "fullDescription": {"text": rule.rationale},
        "help": {"text": rule.rationale},
        "defaultConfiguration": {"level": "error"},
    }


def to_sarif(findings: Iterable[Finding]) -> Dict:
    """A SARIF 2.1.0 document (as a dict) for *findings*."""
    findings = list(findings)
    rule_ids: List[str] = sorted({f.rule for f in findings} | set(RULES))
    index_of = {rid: i for i, rid in enumerate(rule_ids)}
    results = []
    for f in findings:
        results.append({
            "ruleId": f.rule,
            "ruleIndex": index_of[f.rule],
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(1, f.line),
                        "startColumn": max(1, f.col + 1),
                    },
                },
            }],
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": _TOOL_NAME,
                    "informationUri":
                        "https://github.com/repro/repro",
                    "rules": [_rule_descriptor(r) for r in rule_ids],
                },
            },
            "originalUriBaseIds": {
                "SRCROOT": {"uri": "file:///"},
            },
            "results": results,
        }],
    }


def render_sarif(findings: Iterable[Finding]) -> str:
    return json.dumps(to_sarif(findings), indent=2, sort_keys=True)


def validate_sarif(doc: Dict) -> List[str]:
    """Structural 2.1.0 conformance errors in *doc* (empty = valid).

    Covers every constraint the emitted subset is subject to: required
    top-level members, run/tool/driver shape, rule descriptors, result
    member types, ruleIndex consistency, and location regions.
    """
    errors: List[str] = []

    def need(obj: Dict, key: str, typ, where: str) -> bool:
        if key not in obj:
            errors.append(f"{where}: missing required member {key!r}")
            return False
        if not isinstance(obj[key], typ):
            errors.append(f"{where}.{key}: expected {typ.__name__}, "
                          f"got {type(obj[key]).__name__}")
            return False
        return True

    if not isinstance(doc, dict):
        return ["document: not an object"]
    if need(doc, "version", str, "document") \
            and doc["version"] != SARIF_VERSION:
        errors.append(f"document.version: {doc['version']!r} != "
                      f"{SARIF_VERSION!r}")
    if not need(doc, "runs", list, "document"):
        return errors
    for ri, run in enumerate(doc["runs"]):
        where = f"runs[{ri}]"
        if not isinstance(run, dict):
            errors.append(f"{where}: not an object")
            continue
        rules: Sequence[Dict] = ()
        if need(run, "tool", dict, where):
            tool = run["tool"]
            if need(tool, "driver", dict, f"{where}.tool"):
                driver = tool["driver"]
                need(driver, "name", str, f"{where}.tool.driver")
                rules = driver.get("rules", [])
                for qi, rule in enumerate(rules):
                    rwhere = f"{where}.tool.driver.rules[{qi}]"
                    if isinstance(rule, dict):
                        need(rule, "id", str, rwhere)
                    else:
                        errors.append(f"{rwhere}: not an object")
        if not need(run, "results", list, where):
            continue
        for si, res in enumerate(run["results"]):
            rwhere = f"{where}.results[{si}]"
            if not isinstance(res, dict):
                errors.append(f"{rwhere}: not an object")
                continue
            if need(res, "message", dict, rwhere):
                need(res["message"], "text", str, f"{rwhere}.message")
            rid = res.get("ruleId")
            ridx = res.get("ruleIndex")
            if isinstance(ridx, int):
                if not (0 <= ridx < len(rules)):
                    errors.append(f"{rwhere}.ruleIndex: {ridx} out of "
                                  f"range for {len(rules)} rules")
                elif isinstance(rid, str) \
                        and rules[ridx].get("id") != rid:
                    errors.append(
                        f"{rwhere}: ruleIndex {ridx} names "
                        f"{rules[ridx].get('id')!r}, ruleId is {rid!r}")
            for li, loc in enumerate(res.get("locations", [])):
                lwhere = f"{rwhere}.locations[{li}]"
                phys = loc.get("physicalLocation") \
                    if isinstance(loc, dict) else None
                if not isinstance(phys, dict):
                    errors.append(f"{lwhere}: missing physicalLocation")
                    continue
                art = phys.get("artifactLocation")
                if not isinstance(art, dict) or \
                        not isinstance(art.get("uri"), str):
                    errors.append(f"{lwhere}: artifactLocation.uri "
                                  f"missing or not a string")
                region = phys.get("region")
                if isinstance(region, dict):
                    for k in ("startLine", "startColumn"):
                        v = region.get(k)
                        if v is not None and (
                                not isinstance(v, int) or v < 1):
                            errors.append(f"{lwhere}.region.{k}: must "
                                          f"be a positive integer")
    return errors
