"""Analysis CLI: determinism linter and model checker.

Usage::

    python -m repro.analysis lint src/              # lint a tree
    python -m repro.analysis lint src/ --json       # machine-readable
    python -m repro.analysis lint src/ --show-suppressed   # noqa audit
    python -m repro.analysis lint a.py --select REP004,REP006
    python -m repro.analysis rules                  # rule table
    python -m repro.analysis check --workload smallio --budget 200

Exit status: 0 when no findings/violations, 1 when any, 2 on usage
error.  The sanitizer has no subcommand here — it is a *runtime*
check, enabled per experiment run with ``python -m repro.harness
<figure> --sanitize`` (and implicitly by ``check``); the
collective-congruence gate likewise is the runtime trace validator,
run with ``--validate-collectives``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .config import AnalysisConfig, load_config
from .linter import Finding, collect_suppressions, lint_paths
from .rules import RULES


def _load_cli_config(args: argparse.Namespace) -> Optional[AnalysisConfig]:
    """Config per the shared --config/--no-config/--select flags; None
    on a usage error (already reported)."""
    config: AnalysisConfig
    if args.no_config:
        config = AnalysisConfig()
    else:
        pyproject = Path(args.config) if args.config else None
        config = load_config(pyproject)
    if args.select:
        wanted = {r.strip().upper() for r in args.select.split(",") if r.strip()}
        unknown = wanted - set(RULES)
        if unknown:
            print(f"unknown rule(s): {sorted(unknown)}", file=sys.stderr)
            return None
        config = AnalysisConfig(
            disable=frozenset(set(RULES) - wanted) | config.disable,
            exclude=config.exclude,
            per_file_rules=config.per_file_rules)
    return config


def _show_suppressed(paths: List[str], config: AnalysisConfig) -> int:
    suppressions = collect_suppressions(paths, config)
    for s in suppressions:
        print(s.render())
    n = len(suppressions)
    unjustified = sum(1 for s in suppressions if not s.justification)
    print(f"\n{n} suppression(s), {unjustified} without a justification"
          if n else "no suppressions")
    return 0


def _report(findings: List[Finding], as_json: bool) -> int:
    if as_json:
        print(json.dumps([f.__dict__ for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
        n = len(findings)
        files = len({f.path for f in findings})
        print(f"\n{n} finding(s) in {files} file(s)" if n else "no findings")
    return 1 if findings else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    config = _load_cli_config(args)
    if config is None:
        return 2
    if args.show_suppressed:
        return _show_suppressed(args.paths, config)
    findings = lint_paths(args.paths, config)
    return _report(findings, args.json)


def _cmd_rules(_args: argparse.Namespace) -> int:
    for rule in RULES.values():  # repro: noqa[REP004] -- registry is a
        # literal table; printed in definition order by design.
        print(f"{rule.id}  {rule.summary}")
        print(f"        {rule.rationale}\n")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    # Lazy imports: the explorer pulls in the whole simulator stack,
    # which `lint` runs (CI's most frequent path) should not pay for.
    from .explore import run_check, save_trace

    if args.budget < 1 or args.bound < 0:
        print("check needs --budget >= 1 and --bound >= 0", file=sys.stderr)
        return 2
    print(f"exploring workload {args.workload!r} "
          f"(bound {args.bound}, budget {args.budget})")
    report = run_check(args.workload, budget=args.budget, bound=args.bound,
                       log=print)
    print(report.render())
    if report.trace is not None:
        save_trace(args.trace, report.trace)
        print(f"  trace written to {args.trace} — replay with:\n"
              f"    python -m repro.harness --replay-schedule {args.trace}")
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism analysis for the repro source tree.")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the determinism linter")
    lint.add_argument("paths", nargs="+", help="files or directories")
    lint.add_argument("--select", default="",
                      help="comma-separated rule IDs to run (default: all)")
    lint.add_argument("--config", default="",
                      help="explicit pyproject.toml (default: nearest)")
    lint.add_argument("--no-config", action="store_true",
                      help="ignore [tool.repro.analysis] settings")
    lint.add_argument("--json", action="store_true",
                      help="emit findings as JSON")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="audit: list every noqa suppression with its "
                           "justification instead of linting")
    lint.set_defaults(fn=_cmd_lint)

    rules = sub.add_parser("rules", help="print the rule table")
    rules.set_defaults(fn=_cmd_rules)

    check = sub.add_parser(
        "check", help="bounded schedule exploration with invariant oracles")
    check.add_argument("--workload", default="smallio",
                       help="checker workload (see repro.analysis.scenarios)")
    check.add_argument("--budget", type=int, default=200,
                       help="max schedules to explore (default 200)")
    check.add_argument("--bound", type=int, default=2,
                       help="preemption bound: max deviations per schedule "
                            "(default 2)")
    check.add_argument("--trace", default="trace.json",
                       help="where to write the minimized violation trace")
    check.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
