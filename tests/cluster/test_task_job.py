"""Tests for the task and job state machines."""

import pytest

from repro.cluster.job import Job, JobClass, classify
from repro.cluster.task import TaskState
from repro.core.errors import SimulationError


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


def test_task_start_finish_records_times():
    job = make_job()
    task = job.tasks[0]
    task.start(worker_id=3, now=7.0)
    assert task.state is TaskState.RUNNING
    assert task.worker_id == 3
    task.finish(now=17.0)
    assert task.state is TaskState.FINISHED
    assert task.finish_time == 17.0


def test_task_wait_time_measures_queueing():
    job = make_job()  # submitted at 5.0
    task = job.tasks[0]
    task.start(worker_id=0, now=9.0)
    assert task.wait_time == pytest.approx(4.0)


def test_task_wait_time_before_start_raises():
    with pytest.raises(SimulationError):
        make_job().tasks[0].wait_time


def test_task_double_start_rejected():
    task = make_job().tasks[0]
    task.start(0, 0.0)
    with pytest.raises(SimulationError):
        task.start(1, 1.0)


def test_task_finish_without_start_rejected():
    with pytest.raises(SimulationError):
        make_job().tasks[0].finish(1.0)


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


def test_unfinished_tasks_shrinks():
    job = make_job(durations=(10.0, 20.0))
    task = job.tasks[0]
    task.start(0, 0.0)
    task.finish(10.0)
    assert job.unfinished_tasks() == [job.tasks[1]]
