"""Tests for the experiment harness: configs, cache, report rendering."""

import gzip
import json

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments import (
    RunSpec,
    ascii_table,
    build_engine,
    cache_key,
    execute,
    get_executor,
    sweep_sizes,
)
from repro.experiments import fig16_17_prototype
from repro.experiments.config import high_load_size
from repro.experiments.report import FigureResult, ascii_cdf
from repro.workloads.registry import WorkloadSpec
from repro.workloads.spec import JobSpec, Trace
from tests.conftest import TEST_CUTOFF, long_job, short_job


@pytest.fixture
def small_trace():
    jobs = [long_job(0, 0.0, 4)] + [short_job(i, float(i)) for i in range(1, 6)]
    return Trace(jobs, name="exp-small")


# -- RunSpec / build_engine --------------------------------------------------
def test_unknown_scheduler_rejected():
    with pytest.raises(ConfigurationError):
        RunSpec(scheduler="nope", n_workers=4, cutoff=TEST_CUTOFF)


def test_invalid_worker_count_rejected():
    with pytest.raises(ConfigurationError):
        RunSpec(scheduler="hawk", n_workers=0, cutoff=TEST_CUTOFF)


@pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_cutoff_rejected_at_construction(cutoff):
    with pytest.raises(ConfigurationError, match="cutoff must be positive"):
        RunSpec(scheduler="sparrow", n_workers=10, cutoff=cutoff)


@pytest.mark.parametrize("scheduler", ["sparrow", "hawk"])
def test_partition_fraction_checked_for_every_policy(scheduler):
    # Sparrow never builds a partition, yet the bogus value would enter
    # the spec's digest and give the run its own cache entry.
    with pytest.raises(ConfigurationError, match=r"must be in \[0, 1\)"):
        RunSpec(scheduler, 10, cutoff=1.0, short_partition_fraction=5.0)


@pytest.mark.parametrize(
    "name, has_stealing, has_partition",
    [
        ("hawk", True, True),
        ("sparrow", False, False),
        ("centralized", False, False),
        ("split", False, True),
        ("hawk-no-centralized", True, True),
        ("hawk-no-partition", True, False),
        ("hawk-no-stealing", False, True),
    ],
)
def test_build_engine_wiring(name, has_stealing, has_partition):
    spec = RunSpec(scheduler=name, n_workers=10, cutoff=TEST_CUTOFF)
    engine = build_engine(spec)
    assert (engine.stealing is not None) == has_stealing
    assert (engine.cluster.n_short > 0) == has_partition


def test_execute_runs_to_completion(small_trace):
    spec = RunSpec(scheduler="hawk", n_workers=6, cutoff=TEST_CUTOFF)
    res = execute(spec, small_trace)
    assert len(res.jobs) == len(small_trace)


@pytest.mark.parametrize("workload", ["google", "cloudera-c"])
@pytest.mark.parametrize("scheduler", ["hawk", "sparrow", "split", "centralized"])
def test_for_workload_matches_hand_built_spec(workload, scheduler):
    """The cutoff always, the partition only for ``uses_partition``
    policies: equal to the field-by-field spec, cache key included."""
    spec = WorkloadSpec(workload)
    fields = {"cutoff": spec.cutoff}
    if scheduler in ("hawk", "split"):
        fields["short_partition_fraction"] = spec.short_partition_fraction
    hand_built = RunSpec(scheduler=scheduler, n_workers=40, seed=3, **fields)
    built = RunSpec.for_workload(spec, scheduler, 40, 3)
    assert built == hand_built
    trace = Trace([short_job(0, 0.0)], name="key-probe")
    assert cache_key(built, trace) == cache_key(hand_built, trace)


def test_with_replaces_fields():
    spec = RunSpec(scheduler="hawk", n_workers=4, cutoff=TEST_CUTOFF)
    other = spec.with_(n_workers=8)
    assert other.n_workers == 8
    assert other.scheduler == "hawk"


# -- run cache -----------------------------------------------------------------
def test_run_cached_memoizes(small_trace):
    executor = get_executor()
    spec = RunSpec(scheduler="sparrow", n_workers=6, cutoff=TEST_CUTOFF)
    a = executor.run_one(spec, small_trace)
    before = executor.summary()
    b = executor.run_one(spec, small_trace)
    assert a is b
    after = executor.summary()
    assert after["memo_hits"] == before["memo_hits"] + 1
    assert after["executions"] == before["executions"]


def test_run_cache_distinguishes_specs(small_trace):
    run_one = get_executor().run_one
    a = run_one(
        RunSpec(scheduler="sparrow", n_workers=6, cutoff=TEST_CUTOFF), small_trace
    )
    b = run_one(
        RunSpec(scheduler="sparrow", n_workers=7, cutoff=TEST_CUTOFF), small_trace
    )
    assert a is not b


def test_run_cache_distinguishes_estimate_tags(small_trace):
    run_one = get_executor().run_one
    a = run_one(
        RunSpec(
            scheduler="sparrow",
            n_workers=6,
            cutoff=TEST_CUTOFF,
            estimate=lambda s: 1.0,
            estimate_tag="one",
        ),
        small_trace,
    )
    b = run_one(
        RunSpec(
            scheduler="sparrow",
            n_workers=6,
            cutoff=TEST_CUTOFF,
            estimate=lambda s: 2.0,
            estimate_tag="two",
        ),
        small_trace,
    )
    assert a is not b


# -- sweep sizing -----------------------------------------------------------------
def test_sweep_sizes_monotone(small_trace):
    sizes = sweep_sizes(small_trace, (2.0, 1.0, 0.5))
    assert list(sizes) == sorted(sizes)
    assert sizes[1] == pytest.approx(
        small_trace.nodes_for_full_utilization(), abs=1
    )


def test_high_load_size_positive(small_trace):
    assert high_load_size(small_trace) >= 3


# -- report rendering ---------------------------------------------------------------
def test_ascii_table_alignment():
    out = ascii_table(("a", "bee"), [(1, 2.5), (10, 0.123456)])
    lines = out.splitlines()
    assert len(lines) == 4
    assert len(set(len(line) for line in lines)) == 1  # equal widths


def test_ascii_table_row_length_mismatch():
    with pytest.raises(ConfigurationError):
        ascii_table(("a",), [(1, 2)])


def test_ascii_table_empty_headers():
    with pytest.raises(ConfigurationError):
        ascii_table((), [])


def test_ascii_cdf_renders():
    out = ascii_cdf([1.0, 2.0, 3.0, 4.0], width=20, height=5, label="x")
    lines = out.splitlines()
    assert len(lines) == 6
    assert "*" in out


def test_ascii_cdf_empty_rejected():
    with pytest.raises(ConfigurationError):
        ascii_cdf([])


def test_figure_result_column_access():
    fig = FigureResult("F", "t", headers=("a", "b"))
    fig.add_row(1, 2)
    fig.add_row(3, 4)
    assert fig.column("b") == [2, 4]
    with pytest.raises(ConfigurationError):
        fig.column("zzz")


def test_figure_result_render_contains_notes():
    fig = FigureResult("F9", "title", headers=("x",))
    fig.add_row(1)
    fig.add_note("hello")
    out = fig.render()
    assert "F9" in out and "hello" in out


# -- Figures 16-17 from a recorded event log ---------------------------------
def relabelled_fixture(tmp_path, relabel):
    """A copy of the committed fixture with ``relabel(label)`` applied to
    every run line's label."""
    path = tmp_path / "events.ndjson.gz"
    with gzip.open(fig16_17_prototype.default_events_path(), "rt") as src:
        lines = [json.loads(line) for line in src]
    for line in lines:
        if line["type"] == "run":
            line["label"] = relabel(line["label"])
    with gzip.open(path, "wt") as out:
        out.writelines(json.dumps(line) + "\n" for line in lines)
    return path


def test_from_events_names_a_run_without_a_label(tmp_path, capsys):
    path = relabelled_fixture(tmp_path, lambda label: {})
    with pytest.raises(ConfigurationError, match="sparrow-b9411420's label lacks"):
        fig16_17_prototype.run_from_events(path)
    assert fig16_17_prototype.main(["--from-events", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "multiple and scheduler" in err
    assert "Traceback" not in err


def test_from_events_names_a_load_point_without_hawk(tmp_path):
    def move_hawk(label):
        if label["scheduler"] == "hawk" and label["multiple"] == 1.0:
            return {**label, "multiple": 1.5}
        return label

    path = relabelled_fixture(tmp_path, move_hawk)
    with pytest.raises(ConfigurationError, match="load point 1.0 has no hawk run"):
        fig16_17_prototype.run_from_events(path)
