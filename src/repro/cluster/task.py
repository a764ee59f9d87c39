"""Task state machine."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.core.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.job import Job


class TaskState(enum.Enum):
    """Lifecycle of a task."""

    PENDING = "pending"  # created, not yet handed to any worker
    RUNNING = "running"  # executing on a worker
    FINISHED = "finished"


class Task:
    """One unit of work belonging to a job.

    ``duration`` is the *true* execution time; schedulers only ever see the
    job-level estimate (Section 3.3).
    """

    __slots__ = (
        "job",
        "index",
        "duration",
        "state",
        "worker_id",
        "was_stolen",
        "attempt",
    )

    def __init__(self, job: "Job", index: int, duration: float) -> None:
        if not duration > 0:  # also rejects NaN
            raise SimulationError(f"task duration must be positive, got {duration}")
        self.job = job
        self.index = index
        self.duration = duration
        self.state = TaskState.PENDING
        self.worker_id: int | None = None
        self.was_stolen = False
        #: Execution attempt counter; bumped by :meth:`reset_for_retry` when
        #: fault injection loses the running copy, so the engine can tell a
        #: stale completion event from the live execution's.
        self.attempt = 0

    def start(self, worker_id: int) -> None:
        if self.state is not TaskState.PENDING:
            raise SimulationError(
                f"task {self.job.job_id}:{self.index} started twice "
                f"(state={self.state})"
            )
        self.state = TaskState.RUNNING
        self.worker_id = worker_id

    def finish(self) -> None:
        if self.state is not TaskState.RUNNING:
            raise SimulationError(
                f"task {self.job.job_id}:{self.index} finished while {self.state}"
            )
        self.state = TaskState.FINISHED

    def mark_stolen(self) -> None:
        """Account one steal of this task to it and its job (Section 3.6)."""
        self.was_stolen = True
        self.job.stolen_tasks += 1

    def reset_for_retry(self) -> None:
        """Return a lost (worker-crashed) execution to the pending state.

        The re-execution runs for the full true duration again.
        """
        if self.state is not TaskState.RUNNING:
            raise SimulationError(
                f"task {self.job.job_id}:{self.index} reset while {self.state}"
            )
        self.state = TaskState.PENDING
        self.worker_id = None
        self.attempt += 1
        self.job.retried_tasks += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task(job={self.job.job_id}, idx={self.index}, "
            f"dur={self.duration:.1f}, {self.state.value})"
        )
