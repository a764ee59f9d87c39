"""Job model and long/short classification (Section 3.3)."""

from __future__ import annotations

import enum
from typing import Sequence

from repro.cluster.task import Task
from repro.core.errors import SimulationError


class JobClass(enum.Enum):
    """Scheduling class of a job."""

    SHORT = "short"
    LONG = "long"


def classify(estimated_task_duration: float, cutoff: float) -> JobClass:
    """Classify a job by comparing its estimate to the cutoff.

    "Jobs for which the estimated task runtime is smaller than the cutoff
    are scheduled in a distributed fashion" (Section 3.3); the rest are
    long.
    """
    if estimated_task_duration < cutoff:
        return JobClass.SHORT
    return JobClass.LONG


class Job:
    """A materialized job: tasks plus per-run scheduling state.

    A ``Job`` is created from an immutable :class:`repro.workloads.JobSpec`
    at the start of every run so runs never share mutable state.

    Attributes
    ----------
    tasks:
        The job's tasks in index order.  The simulator's engine empties
        this list once the job completes (nothing reads a finished job's
        tasks, and the emptied list breaks the job <-> task reference
        cycle, so refcounting frees a run's task graph); the threaded
        prototype keeps it.
    num_tasks, task_seconds:
        Task count and total work (sum of true task durations), stored
        at construction so they survive the emptied ``tasks``.
    true_mean_task_duration:
        ``task_seconds / num_tasks``.
    estimated_task_duration:
        What the scheduler believes the mean task runtime is.  Equal to the
        true mean under exact estimation; perturbed by the mis-estimation
        model of Section 4.8 otherwise.
    scheduled_class:
        Class derived from the *estimate* — drives routing.
    true_class:
        Class derived from the *true* mean — used for reporting, so that
        mis-estimation experiments report on the set of jobs "classified as
        long when no mis-estimations are present" (Section 4.8).
    """

    __slots__ = (
        "job_id",
        "submit_time",
        "tasks",
        "num_tasks",
        "task_seconds",
        "true_mean_task_duration",
        "estimated_task_duration",
        "scheduled_class",
        "true_class",
        "finished_tasks",
        "completion_time",
        "stolen_tasks",
        "retried_tasks",
    )

    def __init__(
        self,
        job_id: int,
        submit_time: float,
        task_durations: Sequence[float],
        estimated_task_duration: float,
        cutoff: float,
    ) -> None:
        if not task_durations:
            raise SimulationError(f"job {job_id} has no tasks")
        self.job_id = job_id
        self.submit_time = float(submit_time)
        self.tasks = [Task(self, i, d) for i, d in enumerate(task_durations)]
        self.num_tasks = len(task_durations)
        self.task_seconds: float = sum(task_durations)
        self.true_mean_task_duration = self.task_seconds / self.num_tasks
        self.estimated_task_duration = float(estimated_task_duration)
        self.scheduled_class = classify(self.estimated_task_duration, cutoff)
        self.true_class = classify(self.true_mean_task_duration, cutoff)
        self.finished_tasks = 0
        self.completion_time: float | None = None
        self.stolen_tasks = 0
        self.retried_tasks = 0

    @property
    def is_complete(self) -> bool:
        return self.finished_tasks == self.num_tasks

    @property
    def runtime(self) -> float:
        """Job runtime: last task completion minus submission."""
        if self.completion_time is None:
            raise SimulationError(f"job {self.job_id} has not completed")
        return self.completion_time - self.submit_time

    def record_task_finish(self, now: float) -> bool:
        """Count a task completion; returns True when the job just finished."""
        self.finished_tasks += 1
        if self.finished_tasks > self.num_tasks:
            raise SimulationError(f"job {self.job_id} finished too many tasks")
        if self.finished_tasks == self.num_tasks:
            self.completion_time = now
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(id={self.job_id}, t={self.num_tasks}, "
            f"mean={self.true_mean_task_duration:.1f}, "
            f"{self.scheduled_class.value})"
        )
