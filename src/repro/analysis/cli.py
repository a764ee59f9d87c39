"""reprolint command line: ``python -m repro.analysis``.

Exit codes: 0 — clean (no finding survives its inline suppressions);
1 — at least one finding; 2 — usage error.

Examples::

    python -m repro.analysis                      # scan src/repro, gate
    python -m repro.analysis --explain DET003     # why a rule exists
    python -m repro.analysis --list-rules
    python -m repro.analysis src/repro/cluster    # scan a subtree
    python -m repro.analysis --report out.txt     # write the drift report
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import ALL_RULES, analyze_paths, repo_root
from repro.analysis.report import render_report

_ALL_EXPLAINABLE = {rule.rule_id: rule for rule in ALL_RULES}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: determinism & purity static analysis for the "
            "simulation core"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print a rule's rationale and fix guidance, then exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list every rule id and title"
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="also write the deterministic drift-checked report here",
    )
    parser.add_argument(
        "--no-semantic",
        action="store_true",
        help="skip the registry-importing rules (REG001/REG002)",
    )
    return parser


def _explain(rule_id: str) -> int:
    rule = _ALL_EXPLAINABLE.get(rule_id)
    if rule is None:
        print(
            f"unknown rule {rule_id!r}; known: "
            f"{', '.join(sorted(_ALL_EXPLAINABLE))}",
            file=sys.stderr,
        )
        return 2
    print(f"{rule.rule_id} — {rule.title}")
    print()
    print(textwrap.dedent(rule.explain).strip())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.explain:
        return _explain(args.explain)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    result = analyze_paths(
        args.paths or None, root=repo_root(), semantic=not args.no_semantic
    )
    if args.report:
        Path(args.report).write_text(render_report(result), encoding="utf-8")
    for finding in result.findings:
        print(finding.render())
    status = "FAIL" if result.findings else "ok"
    print(
        f"reprolint: {result.files_scanned} files, "
        f"{len(result.findings)} finding(s) -> {status}"
    )
    return 1 if result.findings else 0
