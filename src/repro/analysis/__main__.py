"""``python -m repro.analysis``: the lint engine's command-line front end.

Exit status: 0 when every finding is suppressed (or none exist), 1 when
unsuppressed findings remain, 2 for usage errors -- the same contract
``make analyze`` and the CI step rely on.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .engine import (
    AnalysisError,
    all_rules,
    analyze_paths,
    render_json,
    render_text,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-specific static analysis: the REP001-REP007 "
                    "invariant rules over Python sources.")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyse "
                             "(default: src/repro)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON report on stdout")
    parser.add_argument("--rules", default=None, metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all), e.g. REP001,REP005")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--include-suppressed", action="store_true",
                        help="show suppressed findings in the report "
                             "(they never affect the exit status)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.name:24s} {rule.summary}")
        return 0
    if args.rules:
        wanted = {part.strip().upper() for part in args.rules.split(",")
                  if part.strip()}
        known = {rule.rule_id for rule in rules}
        unknown = wanted - known
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}; "
                  f"known: {', '.join(sorted(known))}", file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.rule_id in wanted]
    try:
        findings = analyze_paths(args.paths, rules=rules)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(render_json(findings,
                              include_suppressed=args.include_suppressed))
        else:
            print(render_text(findings,
                              include_suppressed=args.include_suppressed))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; the findings still
        # determine the exit status.  Point stdout at devnull so the
        # interpreter's exit-time flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if any(not f.suppressed for f in findings) else 0


if __name__ == "__main__":
    raise SystemExit(main())
