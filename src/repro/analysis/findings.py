"""Findings and inline suppressions for the reprolint analyzer.

A :class:`Finding` is one rule violation at one source location.  Its
message names the offending construct rather than its coordinates, and
the committed report lists findings by ``(rule, path, message)`` only,
so the report survives unrelated edits that shift code up or down a
file.

Suppressions are inline pragmas (spelled with a placeholder here so this
docstring is not itself parsed as one)::

    foo = hash(name)  # reprolint: disable=<RULE> -- identity map only, never ordered

The ``-- reason`` clause is mandatory (rule SUP001): a suppression is a
reviewed exception to the determinism contract, and the justification
must live next to the code it excuses.  A pragma that suppresses nothing
is itself an error (SUP002) so stale exceptions cannot accumulate.  A
pragma on a line holding only the comment applies to the next line.
The two meta-rules are declared once, in :data:`META_RULES`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: Suppression pragmas that are meta-rules, not AST rules.
SUP_NO_REASON = "SUP001"
SUP_UNUSED = "SUP002"


@dataclass(frozen=True, slots=True)
class MetaRule:
    """A rule checked on the pragmas themselves, not on the code."""

    rule_id: str
    title: str
    explain: str


META_RULES: tuple[MetaRule, ...] = (
    MetaRule(
        SUP_NO_REASON,
        "suppression without a reason",
        """\
A suppression pragma must say why: `# reprolint: disable=RULE -- why`.
It is a reviewed exception to the determinism contract, so its reason
lives next to the code it excuses.  Without one it suppresses nothing.
Fix: add a `-- reason` clause, or fix the code and drop the pragma.""",
    ),
    MetaRule(
        SUP_UNUSED,
        "suppression matching no finding",
        """\
A pragma names a rule that reports nothing on the line it covers (its
own, or the next when the pragma stands alone).  Left in place, a stale
pragma would silently excuse a later violation on that line.  Fix:
delete the pragma, or move it to the line that still needs it.""",
    ),
)

_PRAGMA = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>[A-Z]{3,4}\d{3}(?:\s*,\s*[A-Z]{3,4}\d{3})*)"
    r"(?P<reason>\s*--\s*\S.*)?\s*$"
)


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(slots=True)
class Suppression:
    """One parsed ``reprolint: disable=`` pragma."""

    path: str
    line: int  # line the pragma textually sits on
    applies_to: int  # line whose findings it suppresses
    rules: tuple[str, ...]
    reason: str
    used_rules: set[str] = field(default_factory=set)


def parse_suppressions(source: str, path: str) -> list[Suppression]:
    """Extract every suppression pragma from one file's source.

    A pragma trailing code applies to its own line; a pragma on a
    comment-only line applies to the following line (the conventional
    place when the offending statement is long).
    """
    suppressions = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if match is None:
            continue
        rules = tuple(r.strip() for r in match.group("rules").split(","))
        reason_clause = match.group("reason") or ""
        reason = reason_clause.split("--", 1)[1].strip() if reason_clause else ""
        comment_only = text.strip().startswith("#")
        suppressions.append(
            Suppression(
                path=path,
                line=lineno,
                applies_to=lineno + 1 if comment_only else lineno,
                rules=rules,
                reason=reason,
            )
        )
    return suppressions


def apply_suppressions(
    findings: list[Finding], suppressions: list[Suppression]
) -> list[Finding]:
    """Filter suppressed findings; emit SUP001/SUP002 meta-findings.

    Returns the surviving findings: unsuppressed originals, plus one
    SUP001 per reason-less pragma (its suppressions do **not** take
    effect) and one SUP002 per pragma rule that matched nothing.
    """
    by_line: dict[int, list[Suppression]] = {}
    for sup in suppressions:
        by_line.setdefault(sup.applies_to, []).append(sup)

    surviving = []
    for finding in findings:
        suppressed = False
        for sup in by_line.get(finding.line, ()):
            if finding.rule in sup.rules and sup.reason:
                sup.used_rules.add(finding.rule)
                suppressed = True
        if not suppressed:
            surviving.append(finding)

    for sup in suppressions:
        if not sup.reason:
            surviving.append(
                Finding(
                    rule=SUP_NO_REASON,
                    path=sup.path,
                    line=sup.line,
                    col=0,
                    message=(
                        f"suppression of {','.join(sup.rules)} carries no "
                        "reason; write '# reprolint: disable=RULE -- why'"
                    ),
                )
            )
            continue
        for rule in sup.rules:
            if rule not in sup.used_rules:
                surviving.append(
                    Finding(
                        rule=SUP_UNUSED,
                        path=sup.path,
                        line=sup.line,
                        col=0,
                        message=(
                            f"suppression of {rule} matches no finding on "
                            "its line; delete the stale pragma"
                        ),
                    )
                )
    return surviving
