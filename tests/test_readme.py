"""The root README's commands, flags and paths are the repository's.

Every ``python`` command in a fenced block of ``README.md`` names a CLI;
each CLI's ``--help`` runs, and every ``--flag`` the README passes it
must appear in that help (or in its subcommand's).  Every repository
path the README names must exist, a pytest node id must name a test in
its file, and every file under ``benchmarks/results/`` must be named, so
a renamed flag, module or result fails here instead of leaving a stale
front page.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
README = REPO_ROOT / "README.md"
RESULTS = REPO_ROOT / "benchmarks" / "results"

#: A repository path as the README writes it, with an optional node id.
PATH = re.compile(
    r"(?<![\w/.-])((?:src|benchmarks|tests|examples)/[\w./-]*\w)(?:::(\w+))?"
)
#: A long option, alone or as ``--flag=value``.
FLAG = re.compile(r"^--[\w-]+")


def readme_commands(text: str) -> list[tuple[tuple[str, ...], list[str]]]:
    """``(cli, args)`` for each ``python`` line of a fenced block.

    ``cli`` is ``("-m", module)`` or ``(script,)``; leading ``NAME=value``
    environment settings and trailing ``#`` comments are dropped.
    """
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            while words and re.match(r"^[A-Z_]+=", words[0]):
                words.pop(0)
            if not words or words[0] not in ("python", "python3"):
                continue
            if words[1] == "-m":
                commands.append((("-m", words[2]), words[3:]))
            else:
                commands.append(((words[1],), words[2:]))
    return commands


def cli_help(cli: tuple[str, ...], *sub: str) -> str:
    proc = subprocess.run(
        [sys.executable, *cli, *sub, "--help"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, (cli, sub, proc.stderr)
    return proc.stdout


def test_readme_commands_use_flags_their_clis_take():
    commands = readme_commands(README.read_text())
    assert commands
    helps: dict[tuple[str, ...], str] = {}
    for cli, args in commands:
        if cli not in helps:
            helps[cli] = cli_help(cli)
        known = helps[cli]
        if args and not args[0].startswith("-") and args[0] in known:
            known += cli_help(cli, args[0])  # a subcommand's own options
        for arg in args:
            flag = FLAG.match(arg)
            if flag and not re.search(
                rf"(?<![\w-]){re.escape(flag.group())}(?![\w-])", known
            ):
                pytest.fail(f"{' '.join(cli)} takes no {flag.group()}")


def test_readme_paths_exist():
    named = PATH.findall(README.read_text())
    assert named
    for path, test_name in named:
        assert (REPO_ROOT / path).exists(), path
        if test_name:
            source = (REPO_ROOT / path).read_text()
            assert f"def {test_name}(" in source, f"{path}::{test_name}"


def test_readme_names_every_committed_result():
    text = README.read_text()
    results = [p for p in RESULTS.rglob("*") if p.is_file()]
    assert results
    missing = [
        str(p.relative_to(RESULTS))
        for p in results
        if str(p.relative_to(RESULTS)) not in text
    ]
    assert not missing, missing
