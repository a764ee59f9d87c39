"""Tests for trace analysis, file I/O, arrivals and prototype scaling."""

import re

import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import make_rng
from repro.workloads import read_trace, write_trace
from repro.workloads.analysis import (
    cdf_points,
    long_job_fraction,
    mean_duration_ratio,
    task_seconds_share,
    tasks_share,
    workload_summary,
)
from repro.workloads.arrivals import poisson_arrival_times
from repro.workloads.scaling import (
    scale_trace_for_prototype,
    with_interarrival,
)
from repro.workloads.spec import JobSpec, Trace


@pytest.fixture
def mixed_trace():
    return Trace(
        [
            JobSpec(0, 0.0, (10.0, 10.0)),  # short: 20 ts
            JobSpec(1, 1.0, (10.0,)),  # short: 10 ts
            JobSpec(2, 2.0, (1000.0, 1000.0)),  # long: 2000 ts
        ],
        name="mixed",
    )


# -- analysis -------------------------------------------------------------
def test_long_job_fraction(mixed_trace):
    assert long_job_fraction(mixed_trace, 100.0) == pytest.approx(1 / 3)


def test_task_seconds_share(mixed_trace):
    assert task_seconds_share(mixed_trace, 100.0) == pytest.approx(2000 / 2030)


def test_tasks_share(mixed_trace):
    assert tasks_share(mixed_trace, 100.0) == pytest.approx(2 / 5)


def test_mean_duration_ratio(mixed_trace):
    assert mean_duration_ratio(mixed_trace, 100.0) == pytest.approx(100.0)


def test_ratio_requires_both_classes():
    trace = Trace([JobSpec(0, 0.0, (10.0,))], name="t")
    with pytest.raises(ConfigurationError):
        mean_duration_ratio(trace, 100.0)


def test_workload_summary_bundles_everything(mixed_trace):
    summary = workload_summary(mixed_trace, 100.0)
    assert summary.total_jobs == 3
    assert summary.name == "mixed"


def test_cdf_points_monotone():
    xs, ys = cdf_points([3.0, 1.0, 2.0])
    assert xs == [1.0, 2.0, 3.0]
    assert ys == [pytest.approx(100 / 3), pytest.approx(200 / 3), 100.0]


def test_cdf_points_empty_rejected():
    with pytest.raises(ConfigurationError):
        cdf_points([])


# -- trace I/O --------------------------------------------------------------
def test_roundtrip_plain(tmp_path, mixed_trace):
    path = tmp_path / "trace.tsv"
    write_trace(mixed_trace, path)
    back = read_trace(path)
    assert len(back) == len(mixed_trace)
    for a, b in zip(mixed_trace, back):
        assert a.job_id == b.job_id
        assert a.submit_time == b.submit_time
        assert a.task_durations == b.task_durations


def test_roundtrip_gzip(tmp_path, mixed_trace):
    path = tmp_path / "trace.tsv.gz"
    write_trace(mixed_trace, path)
    back = read_trace(path)
    assert [j.job_id for j in back] == [j.job_id for j in mixed_trace]


def test_read_gzip_cut_short_is_a_typed_error(tmp_path, mixed_trace):
    path = tmp_path / "trace.tsv.gz"
    write_trace(mixed_trace, path)
    path.write_bytes(path.read_bytes()[:-12])  # drop the gzip trailer
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}: "):
        read_trace(path)


@pytest.mark.parametrize("name", ["trace.tsv", "trace.tsv.gz"])
def test_a_file_that_cannot_be_opened_is_a_typed_error(tmp_path, mixed_trace, name):
    missing = tmp_path / "missing" / name
    for path, call in (
        (missing, lambda: read_trace(missing)),
        (missing, lambda: write_trace(mixed_trace, missing)),
        (tmp_path, lambda: read_trace(tmp_path)),
    ):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}: "):
            call()


def test_read_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text("# header\n\n0\t0.0\t1.0,2.0\n")
    trace = read_trace(path)
    assert len(trace) == 1
    assert trace[0].task_durations == (1.0, 2.0)


def test_read_malformed_line_raises(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t0.0\n")
    with pytest.raises(ConfigurationError, match="expected 3"):
        read_trace(path)


def _bad_line(tmp_path, line):
    """A trace whose second line is ``line``; the error prefix it must get."""
    path = tmp_path / "bad.tsv"
    path.write_text(f"0\t0.0\t1.0\n{line}\n")
    return path, f"^{re.escape(str(path))}:2: "


def test_read_non_integer_job_id_names_file_and_line(tmp_path):
    path, where = _bad_line(tmp_path, "x\t0.0\t1.0")
    with pytest.raises(ConfigurationError, match=where + ".*'x'"):
        read_trace(path)


def test_read_empty_duration_names_file_and_line(tmp_path):
    path, where = _bad_line(tmp_path, "1\t0.0\t1.0,,2")
    with pytest.raises(ConfigurationError, match=where):
        read_trace(path)


def test_read_nan_duration_names_file_and_line(tmp_path):
    path, where = _bad_line(tmp_path, "1\t0.0\tnan")
    with pytest.raises(ConfigurationError, match=where + "job 1 "):
        read_trace(path)


def test_read_empty_file_raises(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(ConfigurationError):
        read_trace(path)


def test_read_uses_filename_as_default_name(tmp_path, mixed_trace):
    path = tmp_path / "myname.tsv"
    write_trace(mixed_trace, path)
    assert read_trace(path).name == "myname"


def test_roundtrip_preserves_float_precision(tmp_path):
    trace = Trace([JobSpec(0, 0.123456789, (0.000123456789,))], name="t")
    path = tmp_path / "p.tsv"
    write_trace(trace, path)
    back = read_trace(path)
    assert back[0].submit_time == trace[0].submit_time
    assert back[0].task_durations == trace[0].task_durations


# -- arrivals ----------------------------------------------------------------
def test_poisson_arrivals_increasing():
    times = poisson_arrival_times(make_rng(0, "a"), 100, 10.0)
    assert len(times) == 100
    assert times == sorted(times)
    assert times[0] > 0


def test_poisson_mean_gap_close_to_parameter():
    times = poisson_arrival_times(make_rng(0, "a"), 5000, 10.0)
    assert times[-1] / 5000 == pytest.approx(10.0, rel=0.1)


def test_poisson_validation():
    with pytest.raises(ConfigurationError):
        poisson_arrival_times(make_rng(0, "a"), 0, 10.0)
    with pytest.raises(ConfigurationError):
        poisson_arrival_times(make_rng(0, "a"), 10, 0.0)


# -- prototype scaling --------------------------------------------------------
@pytest.fixture
def scalable_trace():
    return Trace(
        [
            JobSpec(0, 0.0, tuple([100.0] * 50)),  # the largest job
            JobSpec(1, 10.0, (500.0, 500.0)),
            JobSpec(2, 20.0, (2000.0,) * 10),
        ],
        name="orig",
    )


def test_scaling_preserves_task_seconds_ratio(scalable_trace):
    scaled = scale_trace_for_prototype(
        scalable_trace, cluster_size=10, cutoff=1000.0
    )
    orig_ts = [j.task_seconds for j in scalable_trace]
    new_ts = [j.task_seconds for j in scaled.trace]
    ratios = [n / o for n, o in zip(new_ts, orig_ts)]
    assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=0.01)


def test_scaling_largest_job_matches_cluster(scalable_trace):
    scaled = scale_trace_for_prototype(
        scalable_trace, cluster_size=10, cutoff=1000.0
    )
    assert max(j.num_tasks for j in scaled.trace) == 10


def test_scaling_hits_target_mean_runtime(scalable_trace):
    scaled = scale_trace_for_prototype(
        scalable_trace, cluster_size=10, cutoff=1000.0,
        target_mean_task_runtime=0.05,
    )
    trace = scaled.trace
    assert trace.total_task_seconds / trace.total_tasks == pytest.approx(0.05)


def test_scaling_carries_long_classification(scalable_trace):
    scaled = scale_trace_for_prototype(
        scalable_trace, cluster_size=10, cutoff=1000.0
    )
    assert scaled.long_job_ids == {2}


def test_scaling_explicit_time_scale(scalable_trace):
    scaled = scale_trace_for_prototype(
        scalable_trace, cluster_size=10, cutoff=1000.0, time_scale=1e-3
    )
    assert scaled.time_scale == 1e-3
    assert scaled.cutoff == pytest.approx(1.0)


def test_scaling_validation(scalable_trace):
    with pytest.raises(ConfigurationError):
        scale_trace_for_prototype(scalable_trace, cluster_size=0, cutoff=1.0)


def test_with_interarrival_redraws_times(scalable_trace):
    redrawn = with_interarrival(scalable_trace, 5.0, seed=0)
    assert len(redrawn) == len(scalable_trace)
    assert redrawn.horizon != scalable_trace.horizon
    assert {j.job_id for j in redrawn} == {j.job_id for j in scalable_trace}