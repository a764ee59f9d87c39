"""The BENCH harness: declarative ``--check`` gates, merge and CLI tail.

Every gate row of both harnesses (:data:`repro.bench.CORE` and
:data:`repro.service.bench.SERVICE`) runs against the committed BENCH
files: the committed numbers pass, and nudging the row's value just past
its bound gives exactly one failure, naming that row.  A missing file, a
missing section and an unparsable file each fail with their own message,
and an unparsable file is never rewritten.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import repro.bench
import repro.service.bench
from repro.bench import (
    CORE,
    BenchFileError,
    Gate,
    bench_parser,
    check,
    finish,
    merge_into,
)
from repro.service.bench import SERVICE

REPO = Path(__file__).resolve().parents[1]
HARNESSES = {"core": CORE, "service": SERVICE}
ROWS = [
    pytest.param(name, section, gate, id=f"{name}-{section}-{gate.path}")
    for name, harness in HARNESSES.items()
    for section, gates in harness.gates.items()
    for gate in gates
]


def _committed(name: str) -> dict:
    return json.loads((REPO / HARNESSES[name].filename).read_text())


def _past_bound(gate: Gate, committed, factor: float):
    """A value just on the failing side of ``gate``'s bound."""
    if gate.kind == "floor":
        return committed / factor * 0.99
    if gate.kind == "ceiling":
        return committed * factor * 1.01
    assert gate.kind == "true", gate
    return False


@pytest.mark.parametrize("name, section, gate", ROWS)
def test_gate_row_passes_committed_and_fails_just_past_its_bound(
    name, section, gate
):
    harness = HARNESSES[name]
    baseline = REPO / harness.filename
    committed = _committed(name)[section]
    fresh = copy.deepcopy(committed)
    assert check(harness, baseline, section, fresh) == []
    # Nudge the row's first match (a ``*`` takes the first committed key).
    keys = gate.path.split(".")
    parent, reference = fresh, committed
    for i, key in enumerate(keys):
        if key == "*":
            keys[i] = key = sorted(reference)[0]
        if i < len(keys) - 1:
            parent = parent[key]
        reference = reference[key]
    parent[keys[-1]] = _past_bound(gate, reference, harness.factor)
    failures = check(harness, baseline, section, fresh)
    assert len(failures) == 1, failures
    assert failures[0].startswith(f"{gate.label} regression at {'.'.join(keys)}:")


def test_rows_a_mode_does_not_measure_are_skipped():
    """``--scale --quick`` carries no engine runs, so no policy row fires."""
    scale = _committed("core")["scale"]
    fresh = {key: scale[key] for key in ("steal_round", "cache_read")}
    assert check(CORE, REPO / CORE.filename, "scale", fresh) == []
    fresh["policies"] = {"hawk": scale["policies"]["hawk"]}
    failures = check(CORE, REPO / CORE.filename, "scale", fresh)
    assert failures and all("policies.sparrow." in f for f in failures)
    assert all(f.endswith(": not measured") for f in failures)


@pytest.mark.parametrize("name", HARNESSES)
def test_missing_baseline_file_and_section(name, tmp_path):
    harness = HARNESSES[name]
    absent = tmp_path / "absent.json"
    assert check(harness, absent, "quick", {}) == [f"no baseline file at {absent}"]
    bare = tmp_path / harness.filename
    bare.write_text('{"schema": 1}\n')
    assert check(harness, bare, "quick", {}) == [
        f"baseline {bare} has no 'quick' section"
    ]


@pytest.mark.parametrize("name", HARNESSES)
def test_unparsable_bench_file_is_a_typed_error_and_left_untouched(
    name, tmp_path, capsys
):
    harness = HARNESSES[name]
    path = tmp_path / harness.filename
    garbage = '{"quick": {"truncated'
    path.write_text(garbage)
    payload = {"python": "3"}
    with pytest.raises(BenchFileError):
        check(harness, path, "quick", payload)
    with pytest.raises(BenchFileError):
        merge_into(harness, path, "quick", payload)
    parser = bench_parser(harness, "bench", "test")
    for argv in (["--output", str(path)], ["--check", str(path), "--no-write"]):
        assert finish(harness, parser.parse_args(argv), "quick", payload) == 1
        assert "cannot read BENCH file" in capsys.readouterr().err
    assert path.read_text() == garbage


@pytest.mark.parametrize("name", HARNESSES)
def test_merge_keeps_every_other_key(name, tmp_path):
    harness = HARNESSES[name]
    original = (REPO / harness.filename).read_text()
    committed = json.loads(original)
    path = tmp_path / harness.filename
    path.write_text(original)
    # Re-merging a committed section rewrites the file byte-identically.
    merge_into(harness, path, "quick", committed["quick"])
    assert path.read_text() == original
    merge_into(harness, path, "full", {"python": "0.0"})
    data = json.loads(path.read_text())
    assert data["full"] == {**committed["full"], "python": "0.0"}
    assert data["quick"] == committed["quick"]
    fresh = tmp_path / "fresh.json"
    merge_into(harness, fresh, "quick", {"python": "0.0"})
    assert json.loads(fresh.read_text()) == {
        "schema": 1,
        "workload": committed["workload"],
        "quick": {"python": "0.0"},
    }


@pytest.mark.parametrize(
    "module, flags",
    [
        (repro.bench, ("--quick", "--scale", "--repeats")),
        (repro.service.bench, ("--quick",)),
    ],
)
def test_both_clis_keep_their_flags(module, flags, capsys):
    with pytest.raises(SystemExit):
        module.main(["--help"])
    out = capsys.readouterr().out
    for flag in (*flags, "--output", "--no-write", "--check"):
        assert flag in out, flag


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_repeats_below_one_is_a_usage_error(repeats, capsys):
    with pytest.raises(SystemExit) as exit_info:
        repro.bench.main(["--quick", "--no-write", "--repeats", repeats])
    assert exit_info.value.code == 2
    assert f"--repeats: must be at least 1, got {int(repeats)}" in (
        capsys.readouterr().err
    )
