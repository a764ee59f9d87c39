"""The reprolint scan engine: files -> findings -> gate verdict.

:func:`analyze_source` checks one source string (the unit the fixture
tests drive); :func:`analyze_paths` walks directories, applies the path
scopes, runs the semantic registry rules, and returns an
:class:`AnalysisResult`.  Both run each file through :func:`_scan`.
Every surviving finding fails the gate; the one way to accept a finding
is a reasoned inline suppression next to the code it excuses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.config import scope_for
from repro.analysis.findings import (
    META_RULES,
    Finding,
    Suppression,
    apply_suppressions,
    parse_suppressions,
)
from repro.analysis.rules import RULES_BY_ID, SYNTACTIC_RULES
from repro.analysis.semantic import SEMANTIC_RULES


def repo_root() -> Path:
    """The checkout root for a src/ layout (three levels above here)."""
    return Path(__file__).resolve().parents[3]


#: Default committed drift-checked report location.
DEFAULT_REPORT = "benchmarks/results/reprolint_report.txt"

#: Every rule the gate can report, in report order: each has a
#: ``rule_id``, a one-line ``title`` and an ``explain`` text.
ALL_RULES = (*SYNTACTIC_RULES, *SEMANTIC_RULES, *META_RULES)


def _sort_key(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.col, finding.rule, finding.message)


@dataclass(slots=True)
class AnalysisResult:
    """Everything one scan produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)
    files_scanned: int = 0
    #: path -> name of the scope applied to it, for the report.
    scopes_seen: dict[str, str] = field(default_factory=dict)


def analyze_source(
    source: str, path: str, rule_ids: Sequence[str] | None = None
) -> list[Finding]:
    """Scan one source string with the given rules (or its scope's).

    Suppression pragmas are honored; SUP001/SUP002 meta-findings are
    included in the return.  ``path`` is the repo-relative posix path
    used for scope lookup and reporting.
    """
    if rule_ids is None:
        rule_ids = scope_for(path).rules
    findings, _ = _scan(source, path, rule_ids)
    return sorted(findings, key=_sort_key)


def _scan(
    source: str, path: str, rule_ids: Sequence[str]
) -> tuple[list[Finding], list[Suppression]]:
    """(surviving findings, parsed suppressions) for one file."""
    unknown = sorted(set(rule_ids) - set(RULES_BY_ID))
    if unknown:
        raise ValueError(f"unknown rule id(s): {unknown}")
    tree = ast.parse(source, filename=path)
    findings: list[Finding] = []
    for rule_id in rule_ids:
        findings.extend(RULES_BY_ID[rule_id].check(tree, source, path))
    suppressions = parse_suppressions(source, path)
    return apply_suppressions(findings, suppressions), suppressions


def _python_files(paths: Sequence[Path], root: Path) -> list[Path]:
    files: set[Path] = set()
    for path in paths:
        path = path if path.is_absolute() else root / path
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def analyze_paths(
    paths: Sequence[Path | str] | None = None,
    root: Path | None = None,
    semantic: bool = True,
) -> AnalysisResult:
    """Scan a file tree plus (optionally) the live registries."""
    root = root or repo_root()
    targets = [Path(p) for p in (paths or ["src/repro"])]
    result = AnalysisResult()
    for file in _python_files(targets, root):
        try:
            rel = file.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = file.as_posix()
        scope = scope_for(rel)
        findings, suppressions = _scan(
            file.read_text(encoding="utf-8"), rel, scope.rules
        )
        result.findings.extend(findings)
        result.suppressions.extend(s for s in suppressions if s.reason)
        result.files_scanned += 1
        result.scopes_seen[rel] = scope.name
    if semantic:
        for rule in SEMANTIC_RULES:
            result.findings.extend(rule.run(root))
    result.findings.sort(key=_sort_key)
    return result
