"""The reprolint gate: the repo self-check, report drift and the CLI verdict.

``test_repo_has_no_findings`` is the one reprolint gate (CI runs it as
part of tier-1): it runs the full analyzer (syntactic + semantic rules)
over ``src/repro`` and fails on any finding that survives its inline
suppressions.  The CLI tests drive ``repro.analysis.cli.main`` in
process.
"""

from __future__ import annotations

from repro.analysis import DEFAULT_REPORT, analyze_paths, render_report, repo_root
from repro.analysis.cli import main


def test_repo_has_no_findings():
    """Tier-1 gate: src/repro must have zero reprolint findings."""
    result = analyze_paths(root=repo_root())
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], f"reprolint findings:\n{rendered}"


def test_committed_report_matches_regeneration():
    """The report is a drift-checked snapshot, like the registry doc pages.

    Regenerate deliberately with
    ``python -m repro.analysis --report benchmarks/results/reprolint_report.txt``.
    """
    root = repo_root()
    result = analyze_paths(root=root)
    committed = (root / DEFAULT_REPORT).read_text(encoding="utf-8")
    assert committed == render_report(result)


def test_cli_exits_0_on_a_clean_file(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = sorted({3, 1, 2})\n")
    assert main([str(clean), "--no-semantic"]) == 0
    assert capsys.readouterr().out == "reprolint: 1 files, 0 finding(s) -> ok\n"


def test_cli_exits_1_on_a_finding(tmp_path, capsys):
    # A path outside every scope gets the full sim ruleset, DET001 included.
    bad = tmp_path / "clock.py"
    bad.write_text("import time\n\nstamp = time.time()\n")
    assert main([str(bad), "--no-semantic"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"{bad.as_posix()}:3:8: DET001 ")
    assert out[-1] == "reprolint: 1 files, 1 finding(s) -> FAIL"


def test_cli_exits_2_on_an_unknown_rule(capsys):
    assert main(["--explain", "NOPE"]) == 2
    assert "unknown rule 'NOPE'" in capsys.readouterr().err


def test_every_listed_rule_explains(capsys):
    assert main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert {"DET001", "REG001", "SUP001", "SUP002"} <= set(listed)
    for rule_id in listed:
        assert main(["--explain", rule_id]) == 0, rule_id
        explained = capsys.readouterr().out
        assert explained.startswith(f"{rule_id} — "), rule_id
        assert len(explained.splitlines()) > 2, rule_id
