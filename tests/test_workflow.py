"""What CI runs is what tier-1 runs.

The workflow (``.github/workflows/ci.yml``) only runs pytest and the
bench CLIs: every assertion lives in a test, so a local ``pytest -x -q``
checks the same things.  ``workflow_violations`` is the regrowth guard,
a plain text scan (no YAML parser): an inline Python program or a shell
assertion in a ``run:`` block fails it.  The marker test checks that
``-m replicated`` selects exactly the multi-seed claim tests.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"

#: Patterns that mean a check is being written into the workflow.
FORBIDDEN = {
    "inline python heredoc": re.compile(r"\bpython[\d.]*\s+-\s*<<"),
    "python -c": re.compile(r"\bpython[\d.]*\s+-c\b"),
    "cmp": re.compile(r"\bcmp\b"),
    "grep -q": re.compile(r"\bgrep\s+-\w*q"),
    "assert": re.compile(r"\bassert\b"),
}


def run_blocks(text: str) -> list[tuple[int, str]]:
    """Each ``run:`` command as (first line number, command text).

    A block scalar (``run: |``) runs until the first non-blank line
    indented no deeper than its ``run:`` key.  Comment lines are left
    out: a shell comment that names a check is not a check.
    """
    lines = text.splitlines()
    blocks = []
    i = 0
    while i < len(lines):
        match = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", lines[i])
        i += 1
        if not match:
            continue
        indent, rest = len(match.group(1)), match.group(2).strip()
        start = i
        if rest[:1] in ("|", ">"):
            body = []
            while i < len(lines) and (
                not lines[i].strip()
                or len(lines[i]) - len(lines[i].lstrip()) > indent
            ):
                body.append(lines[i])
                i += 1
        else:
            body = [rest]
        command = "\n".join(
            line for line in body if not line.strip().startswith("#")
        )
        blocks.append((start, command))
    return blocks


def workflow_violations(text: str) -> list[str]:
    return [
        f"line {line}: {name}"
        for line, command in run_blocks(text)
        for name, pattern in FORBIDDEN.items()
        if pattern.search(command)
    ]


def test_workflow_holds_no_inline_checks():
    text = WORKFLOW.read_text()
    assert workflow_violations(text) == []
    assert len(text.splitlines()) <= 200


@pytest.mark.parametrize(
    "command",
    [
        "PYTHONPATH=src python - <<'PY'\n  print(1)\n  PY",
        "PYTHONPATH=src python3 -c 'import repro'",
        "cmp /tmp/cold.txt /tmp/warm.txt",
        'grep -qx "executions=0" /tmp/warm.err',
        "python -m pytest -q && assert true",
    ],
)
def test_regrowth_guard_flags_an_inline_check(command):
    body = "\n".join(f"          {line}" for line in command.splitlines())
    workflow = f"    steps:\n      - name: step\n        run: |\n{body}\n"
    assert workflow_violations(workflow), workflow
    inline = f"    steps:\n      - run: {command.splitlines()[0]}\n"
    if "<<" not in command:
        assert workflow_violations(inline), inline


def test_regrowth_guard_reads_only_run_blocks():
    workflow = (
        "# a comment may say assert or python -c\n"
        "jobs:\n"
        "  tests:\n"
        "    steps:\n"
        "      - name: grep -q in a name is not a check\n"
        "        run: |\n"
        "          # nor is cmp in a shell comment\n"
        "          PYTHONPATH=src python -m pytest -x -q\n"
        "        env:\n"
        "          NOTE: assert\n"
    )
    assert workflow_violations(workflow) == []


class _Selected:
    """A plugin that records the node ids a collection selects."""

    def __init__(self):
        self.ids: list[str] = []

    def pytest_collection_finish(self, session):
        self.ids = [item.nodeid for item in session.items]


def test_replicated_marker_selects_the_multi_seed_claim_tests():
    selected = _Selected()
    code = pytest.main(
        [
            "--collect-only",
            "-q",
            "-p",
            "no:cacheprovider",
            "--rootdir",
            str(REPO_ROOT),
            "-m",
            "replicated",
            str(REPO_ROOT / "tests"),
        ],
        plugins=[selected],
    )
    assert code == pytest.ExitCode.OK, code
    files = {node.split("::")[0] for node in selected.ids}
    assert files == {
        "tests/test_paper_claims.py",
        "tests/experiments/test_figures_quick.py",
    }
    claims = [n for n in selected.ids if "test_paper_claims" in n]
    assert len(claims) >= 8, claims
    # the single-seed smoke tests stay outside the marker
    assert not any("test_table1_rows" in n for n in selected.ids)
