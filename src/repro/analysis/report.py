"""Deterministic reprolint report rendering.

The report is committed (``benchmarks/results/reprolint_report.txt``)
and drift-checked by ``tests/analysis/test_gate.py``, like the registry
doc pages: it contains no timestamps, hostnames or absolute paths, so
regenerating it on an unchanged tree is byte-identical, and any change
to the rule set, the scopes, a suppression or a finding fails that test
until the snapshot is regenerated on purpose.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.config import SCOPES
from repro.analysis.engine import ALL_RULES, AnalysisResult


def render_report(result: AnalysisResult) -> str:
    """The drift-checked report for one full scan (see module doc)."""
    lines = ["reprolint report", "================", ""]
    lines.append(f"files scanned: {result.files_scanned}")
    scope_counts = Counter(result.scopes_seen.values())
    for scope in SCOPES:
        lines.append(
            f"  scope {scope.name:<8} {scope_counts.get(scope.name, 0):>3} files"
            f"  rules: {','.join(scope.rules)}"
        )
    lines.append("")

    lines.append("findings per rule:")
    finding_counts = Counter(f.rule for f in result.findings)
    for rule in ALL_RULES:
        lines.append(
            f"  {rule.rule_id}  {finding_counts.get(rule.rule_id, 0):>3}  {rule.title}"
        )
    lines.append("")

    if result.findings:
        lines.append("findings:")
        for finding in result.findings:
            lines.append(f"  {finding.rule}  {finding.path}  {finding.message}")
    else:
        lines.append("findings: none")
    lines.append("")

    if result.suppressions:
        lines.append("suppressions (reviewed exceptions):")
        for sup in sorted(
            result.suppressions, key=lambda s: (s.path, s.rules, s.reason)
        ):
            lines.append(
                f"  {sup.path}  {','.join(sup.rules)}  -- {sup.reason}"
            )
    else:
        lines.append("suppressions: none")
    return "\n".join(lines) + "\n"
