"""Sparrow: fully distributed batch probing with late binding.

This is the paper's primary baseline (Section 2.3) and also the building
block Hawk uses for its short jobs (Section 3.5).  Each job gets
``probe_ratio * t`` probes placed on randomly chosen servers; the paper
follows the Sparrow authors in fixing the ratio at 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.cluster import Partition
from repro.core.errors import ConfigurationError
from repro.core.rng import make_rng, spread_sample
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.frontend import ProbeFrontend
from repro.schedulers.registry import Param, register_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.job import Job


@register_policy(
    "sparrow",
    params=(
        Param("probe_ratio", int, default=2, minimum=1, maximum=64,
              doc="probes per task (2 throughout the paper)"),
    ),
)
class SparrowScheduler(SchedulerPolicy):
    """Distributed batch-probing scheduler over a partition of the cluster.

    Parameters
    ----------
    probe_ratio:
        Probes per task; 2 throughout the paper.
    partition:
        The server set probes may land on.  ``ALL`` for the Sparrow
        baseline; Hawk instantiates this class with other scopes.
    rng_stream:
        Name of the random stream (so two probing components inside one
        run, e.g. Hawk's ablation, stay independent).
    """

    name = "sparrow"

    def __init__(
        self,
        probe_ratio: int = 2,
        partition: Partition = Partition.ALL,
        rng_stream: str = "sparrow",
    ) -> None:
        super().__init__()
        if probe_ratio < 1:
            raise ConfigurationError(f"probe_ratio must be >= 1, got {probe_ratio}")
        self.probe_ratio = probe_ratio
        self.partition = partition
        self._rng_stream = rng_stream
        self._rng = None
        self.jobs_scheduled = 0
        self.probes_sent = 0

    def on_bind(self) -> None:
        assert self.engine is not None
        self._rng = make_rng(self.engine.config.seed, self._rng_stream)
        if len(self.engine.cluster.ids(self.partition)) == 0:
            raise ConfigurationError(
                f"partition {self.partition.value} has no workers"
            )

    @classmethod
    def from_params(cls, params) -> "SparrowScheduler":
        return cls(probe_ratio=params["probe_ratio"])

    def _n_probes(self, job: "Job") -> int:
        """Probe budget for one job; subclasses override (batch sampling)."""
        return self.probe_ratio * job.num_tasks

    def on_job_submit(self, job: "Job") -> None:
        assert self.engine is not None and self._rng is not None
        frontend = ProbeFrontend(job)
        ids = self.engine.cluster.ids(self.partition)
        n_probes = self._n_probes(job)
        targets = spread_sample(self._rng, ids, n_probes)
        # One batched send: all probes of a job arrive at the same
        # timestamp in target order (the engine falls back to per-probe
        # events when message faults are injected).
        self.engine.place_probes(targets, job, frontend)
        self.jobs_scheduled += 1
        self.probes_sent += n_probes
