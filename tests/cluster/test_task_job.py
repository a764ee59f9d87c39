"""Tests for the task and job state machines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterEngine, EngineConfig
from repro.cluster.job import Job, JobClass, classify
from repro.cluster.task import TaskState
from repro.core.errors import SimulationError
from repro.schedulers import SparrowScheduler
from tests.conftest import TEST_CUTOFF


def make_job(durations=(10.0, 20.0), cutoff=100.0, estimate=None):
    mean = sum(durations) / len(durations)
    return Job(
        job_id=1,
        submit_time=5.0,
        task_durations=durations,
        estimated_task_duration=estimate if estimate is not None else mean,
        cutoff=cutoff,
    )


# -- classification ----------------------------------------------------
def test_classify_below_cutoff_is_short():
    assert classify(99.9, 100.0) is JobClass.SHORT


def test_classify_at_cutoff_is_long():
    assert classify(100.0, 100.0) is JobClass.LONG


def test_job_scheduled_class_uses_estimate():
    job = make_job(durations=(10.0, 10.0), estimate=500.0)
    assert job.scheduled_class is JobClass.LONG
    assert job.true_class is JobClass.SHORT


def test_job_true_class_uses_true_mean():
    job = make_job(durations=(1000.0, 1000.0), estimate=10.0)
    assert job.scheduled_class is JobClass.SHORT
    assert job.true_class is JobClass.LONG


# -- task lifecycle -----------------------------------------------------
def test_task_initial_state():
    job = make_job()
    task = job.tasks[0]
    assert task.state is TaskState.PENDING
    assert task.worker_id is None


def test_task_start_finish_transitions():
    job = make_job()
    task = job.tasks[0]
    task.start(worker_id=3)
    assert task.state is TaskState.RUNNING
    assert task.worker_id == 3
    task.finish()
    assert task.state is TaskState.FINISHED


def test_task_double_start_rejected():
    task = make_job().tasks[0]
    task.start(0)
    with pytest.raises(SimulationError):
        task.start(1)


def test_task_finish_without_start_rejected():
    with pytest.raises(SimulationError):
        make_job().tasks[0].finish()


def test_task_nonpositive_duration_rejected():
    with pytest.raises(SimulationError):
        make_job(durations=(0.0,))


def test_task_nan_duration_rejected():
    with pytest.raises(SimulationError):
        make_job(durations=(1.0, float("nan")), estimate=1.0)


# -- job completion -----------------------------------------------------
def test_job_completes_after_all_tasks():
    job = make_job(durations=(10.0, 20.0, 30.0))
    assert not job.record_task_finish(15.0)
    assert not job.record_task_finish(25.0)
    assert job.record_task_finish(35.0)
    assert job.is_complete
    assert job.completion_time == 35.0
    assert job.runtime == pytest.approx(30.0)  # submitted at 5.0


def test_job_runtime_before_completion_raises():
    with pytest.raises(SimulationError):
        make_job().runtime


def test_job_too_many_finishes_rejected():
    job = make_job(durations=(10.0,))
    job.record_task_finish(1.0)
    with pytest.raises(SimulationError):
        job.record_task_finish(2.0)


def test_job_with_no_tasks_rejected():
    with pytest.raises(SimulationError):
        Job(1, 0.0, (), 1.0, 100.0)


def test_job_task_seconds():
    assert make_job(durations=(10.0, 20.0)).task_seconds == 30.0


def test_job_true_mean():
    assert make_job(durations=(10.0, 20.0)).true_mean_task_duration == 15.0


durations = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=10**12),
        st.floats(min_value=1e-9, max_value=1e9),
    ),
    min_size=1,
    max_size=500,
)


@settings(max_examples=100, deadline=None)
@given(durations)
def test_stored_totals_equal_derived_ones(durations):
    """``num_tasks`` and ``task_seconds`` are stored at construction; they
    must be what the tasks themselves sum to, bit for bit."""
    job = Job(1, 0.0, durations, 1.0, 100.0)
    derived = sum(t.duration for t in job.tasks)
    assert job.num_tasks == len(job.tasks) == len(durations)
    assert type(job.task_seconds) is type(derived)
    assert job.task_seconds == derived
    mean = sum(durations) / len(durations)
    assert job.true_mean_task_duration.hex() == mean.hex()


class CapturingSparrow(SparrowScheduler):
    """Sparrow that keeps every job it is handed."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_job_submit(self, job):
        self.seen.append(job)
        super().on_job_submit(job)


def test_engine_empties_a_finished_jobs_tasks(tiny_trace):
    policy = CapturingSparrow()
    engine = ClusterEngine(Cluster(8), policy, EngineConfig(cutoff=TEST_CUTOFF))
    result = engine.run(tiny_trace)
    records = {r.job_id: r for r in result.jobs}
    assert sorted(job.job_id for job in policy.seen) == sorted(records)
    for job in policy.seen:
        record = records[job.job_id]
        assert job.is_complete
        assert job.tasks == []
        assert job.num_tasks == record.num_tasks
        assert job.task_seconds == record.task_seconds
