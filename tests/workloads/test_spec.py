"""Tests for JobSpec and Trace containers."""

import pytest

from repro.core.errors import ConfigurationError
from repro.workloads.spec import JobSpec, Trace


def test_jobspec_properties():
    spec = JobSpec(1, 5.0, (10.0, 20.0, 30.0))
    assert spec.num_tasks == 3
    assert spec.mean_task_duration == 20.0
    assert spec.task_seconds == 60.0


def test_jobspec_is_long():
    spec = JobSpec(1, 0.0, (100.0,))
    assert spec.is_long(100.0)
    assert not spec.is_long(100.1)


def test_jobspec_no_tasks_rejected():
    with pytest.raises(ConfigurationError):
        JobSpec(1, 0.0, ())


def test_jobspec_negative_submit_rejected():
    with pytest.raises(ConfigurationError):
        JobSpec(1, -1.0, (10.0,))


def test_jobspec_nonpositive_duration_rejected():
    with pytest.raises(ConfigurationError):
        JobSpec(1, 0.0, (10.0, 0.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_jobspec_nonfinite_duration_rejected(bad):
    with pytest.raises(ConfigurationError, match="job 5 .*non-finite"):
        JobSpec(5, 0.0, (1.0, bad, 2.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_jobspec_bad_submit_time_rejected(bad):
    with pytest.raises(ConfigurationError, match="job 5 .*submit time"):
        JobSpec(5, bad, (1.0,))


def test_jobspec_immutable():
    spec = JobSpec(1, 0.0, (10.0,))
    with pytest.raises(AttributeError):
        spec.submit_time = 3.0


def test_trace_sorts_by_submit_time():
    trace = Trace(
        [JobSpec(1, 5.0, (1.0,)), JobSpec(2, 1.0, (1.0,))], name="t"
    )
    assert [j.job_id for j in trace] == [2, 1]


def test_trace_tie_broken_by_job_id():
    trace = Trace(
        [JobSpec(5, 1.0, (1.0,)), JobSpec(2, 1.0, (1.0,))], name="t"
    )
    assert [j.job_id for j in trace] == [2, 5]


def test_trace_len_and_index():
    trace = Trace([JobSpec(i, float(i), (1.0,)) for i in range(3)], name="t")
    assert len(trace) == 3
    assert trace[1].job_id == 1


def test_trace_empty_rejected():
    with pytest.raises(ConfigurationError):
        Trace([], name="t")


def test_trace_horizon_is_last_submit():
    trace = Trace([JobSpec(0, 2.0, (1.0,)), JobSpec(1, 9.0, (1.0,))], name="t")
    assert trace.horizon == 9.0


def test_trace_totals():
    trace = Trace(
        [JobSpec(0, 0.0, (10.0, 10.0)), JobSpec(1, 1.0, (5.0,))], name="t"
    )
    assert trace.total_tasks == 3
    assert trace.total_task_seconds == 25.0


def test_trace_class_split():
    trace = Trace(
        [JobSpec(0, 0.0, (10.0,)), JobSpec(1, 1.0, (1000.0,))], name="t"
    )
    assert len(trace.long_jobs(100.0)) == 1
    assert len(trace.short_jobs(100.0)) == 1


def test_nodes_for_full_utilization():
    trace = Trace(
        [JobSpec(0, 0.0, (100.0,)), JobSpec(1, 10.0, (100.0,))], name="t"
    )
    assert trace.nodes_for_full_utilization() == pytest.approx(20.0)


def test_subset_takes_first_jobs():
    trace = Trace([JobSpec(i, float(i), (1.0,)) for i in range(10)], name="t")
    sub = trace.subset(3)
    assert len(sub) == 3
    assert [j.job_id for j in sub] == [0, 1, 2]


def test_subset_invalid_size_rejected():
    trace = Trace([JobSpec(0, 0.0, (1.0,))], name="t")
    with pytest.raises(ConfigurationError):
        trace.subset(0)
