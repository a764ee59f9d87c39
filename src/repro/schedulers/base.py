"""Common interface for scheduler policies."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Protocol, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.cluster.engine import EngineConfig
    from repro.cluster.job import Job
    from repro.cluster.task import Task
    from repro.schedulers.frontend import ProbeFrontend


class PolicyHost(Protocol):
    """What a policy touches on its host: the simulator's
    :class:`~repro.cluster.engine.ClusterEngine` or the threaded
    :class:`~repro.runtime.PrototypeCluster`."""

    cluster: "Cluster"
    config: "EngineConfig"
    centralized_down: bool

    def place_probes(
        self, worker_ids: Sequence[int], job: "Job", frontend: "ProbeFrontend"
    ) -> None: ...

    def place_tasks(self, assignments: Sequence[tuple[int, "Task"]]) -> None: ...


class SchedulerPolicy(abc.ABC):
    """Decides where probes and tasks are placed.

    A policy is bound to exactly one host (see :class:`PolicyHost`) for
    exactly one run; the host calls :meth:`on_job_submit` at each job's
    submission time.
    """

    #: Human-readable policy name, used in results and reports.
    name: str = "abstract"

    def __init__(self) -> None:
        self.engine: PolicyHost | None = None

    def bind(self, engine: PolicyHost) -> None:
        if self.engine is not None:
            raise RuntimeError(f"policy {self.name} bound twice")
        self.engine = engine
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for policies that need cluster-dependent setup."""

    @abc.abstractmethod
    def on_job_submit(self, job: "Job") -> None:
        """Place the job's probes/tasks via the engine's placement API."""

    def on_centralized_restored(self) -> None:
        """Hook: an injected centralized-scheduler outage just ended.

        Policies with a centralized component flush whatever they deferred
        while the engine reported ``centralized_down``; purely distributed
        policies (which never consult the flag) ignore it.
        """

    def on_task_finish(self, task: "Task") -> None:
        """Status update: a task completed somewhere in the cluster.

        Centralized components use this to keep their per-server waiting
        times in sync with reality (the paper's node status reports);
        distributed components ignore it by design — they "have no
        knowledge of the current cluster state" (Section 3.5).
        """
