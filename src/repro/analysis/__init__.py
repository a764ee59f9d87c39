"""reprolint — determinism & purity static analysis for the sim core.

Every figure of this reproduction rests on byte-identical determinism:
the run cache, the shared-memory trace transport and matched-seed
replication all silently corrupt results if nondeterminism (wall-clock
reads, unseeded RNG, hash-ordered iteration, PYTHONHASHSEED-sensitive
values) leaks into a simulation path.  This package enforces that
invariant as a tool instead of a review habit: an AST-based, plugin-rule
analyzer with path-scoped configs (sim paths get the full ruleset, tool
paths a relaxed one), reason-required inline suppressions and a
drift-checked report.  The gate fails on any finding; a reasoned inline
suppression is the one way to accept one.

CLI: ``python -m repro.analysis [--explain RULE] [--list-rules] [--report PATH]``.
Rules: DET001 wall clock, DET002 global/unseeded RNG, DET003 unordered
iteration, DET004 id()/hash() in ordering/digests, DET005 unordered
accumulation, PURE001 frozen mutation, REG001 registry schema
completeness, REG002 cache-key completeness, SUP001/002 suppression
hygiene.
"""

from repro.analysis.config import SCOPES, Scope, scope_for
from repro.analysis.engine import (
    DEFAULT_REPORT,
    AnalysisResult,
    analyze_paths,
    analyze_source,
    repo_root,
)
from repro.analysis.findings import Finding, Suppression, parse_suppressions
from repro.analysis.report import render_report
from repro.analysis.rules import RULES_BY_ID, SYNTACTIC_RULES, Rule
from repro.analysis.semantic import SEMANTIC_RULES

__all__ = [
    "AnalysisResult",
    "DEFAULT_REPORT",
    "Finding",
    "RULES_BY_ID",
    "Rule",
    "SCOPES",
    "SEMANTIC_RULES",
    "SYNTACTIC_RULES",
    "Scope",
    "Suppression",
    "analyze_paths",
    "analyze_source",
    "parse_suppressions",
    "render_report",
    "repo_root",
    "scope_for",
]
