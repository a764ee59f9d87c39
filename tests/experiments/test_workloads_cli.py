"""Tests for the workload-zoo CLI (`python -m repro.experiments.workloads`)."""

import pytest

from repro.experiments import workloads as cli
from repro.workloads import registry


def test_list_names_every_workload(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in registry.registered_names():
        assert name in out
    assert cli.main([]) == 0  # list is the default command
    assert capsys.readouterr().out == out


def test_show_summarizes_a_quick_workload(capsys):
    assert cli.main(["show", "motivation", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "long-job fraction" in out and "trace digest" in out


def test_show_accepts_param_overrides(capsys):
    assert cli.main(
        ["show", "google", "--quick", "--set", "n_jobs=40"]
    ) == 0
    assert "'n_jobs': 40" in capsys.readouterr().out


def test_show_unknown_workload_fails_cleanly(capsys):
    assert cli.main(["show", "nope"]) == 1
    assert "registered workloads" in capsys.readouterr().err


def test_parse_overrides_types_and_errors():
    parsed = cli._parse_overrides(["a=1", "b=2.5", "c=text"])
    assert parsed == {"a": 1, "b": 2.5, "c": "text"}
    with pytest.raises(Exception, match="name=value"):
        cli._parse_overrides(["oops"])


def test_docs_render_every_registry_entry(tmp_path):
    written = cli.write_docs(tmp_path)
    assert sorted(p.name for p in written) == ["policies.md", "workloads.md"]
    workload_docs = (tmp_path / "workloads.md").read_text()
    for name in registry.registered_names():
        assert f"## `{name}`" in workload_docs
    from repro.schedulers import registry as policy_registry

    policy_docs = (tmp_path / "policies.md").read_text()
    for name in policy_registry.registered_names():
        assert f"## `{name}`" in policy_docs


def test_param_rows_show_range_and_choices_together():
    from repro.core.params import Param

    (row,) = cli._param_rows(
        (Param("k", int, default=2, minimum=1, choices=(1, 2, 4), doc="d"),)
    )[2:]
    assert row == "| `k` | int | `2` | [1, +inf]; one of [1, 2, 4] | d |"


def test_committed_doc_pages_match_live_registries():
    """The committed registry_docs pages must track both registries."""
    from pathlib import Path

    docs_dir = (
        Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "results"
        / "registry_docs"
    )
    assert (docs_dir / "policies.md").read_text() == cli.render_policy_docs()
    assert (docs_dir / "workloads.md").read_text() == cli.render_workload_docs()
