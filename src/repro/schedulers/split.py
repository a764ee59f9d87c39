"""Split-cluster baseline (Section 4.6).

A split cluster has *disjoint* partitions: the long partition runs only
long jobs (scheduled centrally) and the short partition runs only short
jobs (scheduled distributed).  There is no general partition and no work
stealing, so short jobs can never use idle servers on the long side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.cluster import Partition
from repro.cluster.job import JobClass
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.centralized import CentralizedScheduler
from repro.schedulers.registry import Param, register_policy
from repro.schedulers.sparrow import SparrowScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.job import Job


@register_policy(
    "split",
    params=(
        Param("probe_ratio", int, default=2, minimum=1, maximum=64,
              doc="probes per task for the short-partition component"),
    ),
    uses_partition=True,
)
class SplitScheduler(SchedulerPolicy):
    """Disjoint long/short partitions; no sharing, no stealing."""

    name = "split"

    @classmethod
    def from_params(cls, params) -> "SplitScheduler":
        return cls(probe_ratio=params["probe_ratio"])

    def __init__(self, probe_ratio: int = 2) -> None:
        super().__init__()
        self._long = CentralizedScheduler(partition=Partition.GENERAL)
        self._short = SparrowScheduler(
            probe_ratio=probe_ratio,
            partition=Partition.SHORT_RESERVED,
            rng_stream="split-short",
        )

    def on_bind(self) -> None:
        assert self.engine is not None
        self._long.bind(self.engine)
        self._short.bind(self.engine)

    def on_job_submit(self, job: "Job") -> None:
        if job.scheduled_class is JobClass.LONG:
            self._long.on_job_submit(job)
        else:
            self._short.on_job_submit(job)

    def on_task_finish(self, task) -> None:
        self._long.on_task_finish(task)

    def on_centralized_restored(self) -> None:
        self._long.on_centralized_restored()
