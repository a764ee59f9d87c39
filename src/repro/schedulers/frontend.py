"""Late-binding job frontend shared by all distributed policies.

In Sparrow's "batch probing" (Section 2.3/3.5), a scheduler sends 2t probes
for a job with t tasks and hands tasks out on demand: when a probe reaches
the head of a worker's queue the worker requests a task, and the frontend
replies with the next unassigned task — or a cancel once all t tasks are
gone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.job import Job
    from repro.cluster.task import Task


class ProbeFrontend:
    """Per-job late-binding state: which tasks are still unassigned.

    The job's task list and its length are held here: :meth:`next_task`
    runs once per probe that reaches a queue head.
    """

    __slots__ = ("job", "_tasks", "_num_tasks", "_next", "cancels_sent")

    def __init__(self, job: "Job") -> None:
        self.job = job
        self._tasks = job.tasks
        self._num_tasks = len(job.tasks)
        self._next = 0
        self.cancels_sent = 0

    @property
    def remaining(self) -> int:
        return self._num_tasks - self._next

    def next_task(self) -> "Task | None":
        """Hand out the next unassigned task, or None (cancel)."""
        index = self._next
        if index >= self._num_tasks:
            self.cancels_sent += 1
            return None
        self._next = index + 1
        return self._tasks[index]
