"""Hawk: the hybrid scheduler (Section 3).

* Long jobs (estimate >= cutoff) go to a centralized least-waiting-time
  scheduler restricted to the *general* partition.
* Short jobs are probed Sparrow-style over the *entire* cluster.
* Work stealing is a separate runtime mechanism configured on the engine
  (:class:`repro.schedulers.stealing.WorkStealing`); it is not part of this
  policy object.

The ``centralize_long`` flag supports the Figure 7 ablation "Hawk without
centralized": long jobs are then batch-probed over the general partition
instead of centrally placed.
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

#: Shared schema of the Hawk ablation family: every member declares both
#: params so a spec can hop between variants (``with_(scheduler=...)``)
#: without re-declaring its params.  ``steal_cap`` is inert on
#: ``hawk-no-stealing`` (no stealing mechanism is attached).
HAWK_PARAMS = (
    Param("probe_ratio", int, default=2, minimum=1, maximum=64,
          doc="probes per task for the short-job component"),
    Param("steal_cap", int, default=10, minimum=1, maximum=1000,
          doc="random victims contacted per stealing round (Figure 15)"),
)


@register_policy(
    "hawk",
    params=HAWK_PARAMS,
    uses_stealing=True,
    uses_partition=True,
)
class HawkScheduler(SchedulerPolicy):
    """Hybrid centralized/distributed scheduling."""

    name = "hawk"

    @classmethod
    def from_params(cls, params) -> "HawkScheduler":
        return cls(probe_ratio=params["probe_ratio"])

    def __init__(
        self,
        probe_ratio: int = 2,
        centralize_long: bool = True,
    ) -> None:
        super().__init__()
        self.centralize_long = centralize_long
        self._short = SparrowScheduler(
            probe_ratio=probe_ratio,
            partition=Partition.ALL,
            rng_stream="hawk-short",
        )
        if centralize_long:
            self._long: SchedulerPolicy = CentralizedScheduler(
                partition=Partition.GENERAL
            )
            # Degraded mode for injected centralized outages
            # (repro.cluster.faults): long jobs fall back to distributed
            # probes over the general partition instead of stalling behind
            # the dead scheduler.  Constructed unconditionally — its named
            # RNG stream is independent, so binding it is unobservable in
            # fault-free runs.
            self._long_fallback: SparrowScheduler | None = SparrowScheduler(
                probe_ratio=probe_ratio,
                partition=Partition.GENERAL,
                rng_stream="hawk-long-degraded",
            )
        else:
            self._long = SparrowScheduler(
                probe_ratio=probe_ratio,
                partition=Partition.GENERAL,
                rng_stream="hawk-long",
            )
            self._long_fallback = None
        self.short_jobs = 0
        self.long_jobs = 0
        self.degraded_long_jobs = 0

    def on_bind(self) -> None:
        assert self.engine is not None
        self._short.bind(self.engine)
        self._long.bind(self.engine)
        if self._long_fallback is not None:
            self._long_fallback.bind(self.engine)

    def on_job_submit(self, job: "Job") -> None:
        if job.scheduled_class is JobClass.LONG:
            self.long_jobs += 1
            if (
                self._long_fallback is not None
                and self.engine is not None
                and self.engine.centralized_down
            ):
                self.degraded_long_jobs += 1
                self._long_fallback.on_job_submit(job)
            else:
                self._long.on_job_submit(job)
        else:
            self.short_jobs += 1
            self._short.on_job_submit(job)

    def on_task_finish(self, task) -> None:
        # Status updates feed the centralized component's waiting times;
        # it ignores tasks it did not place (all short tasks).
        self._long.on_task_finish(task)

    def on_centralized_restored(self) -> None:
        self._long.on_centralized_restored()

    @property
    def long_component(self) -> SchedulerPolicy:
        return self._long


# -- Figure 7 ablation family ------------------------------------------------
@register_policy(
    "hawk-no-centralized",
    params=HAWK_PARAMS,
    uses_stealing=True,
    uses_partition=True,
    ablation_of="hawk",
    doc="Hawk with long jobs batch-probed instead of centrally placed",
)
def _hawk_no_centralized(params) -> HawkScheduler:
    return HawkScheduler(
        probe_ratio=params["probe_ratio"], centralize_long=False
    )


@register_policy(
    "hawk-no-partition",
    params=HAWK_PARAMS,
    uses_stealing=True,
    uses_partition=False,
    ablation_of="hawk",
    doc="Hawk without the reserved short partition",
)
def _hawk_no_partition(params) -> HawkScheduler:
    return HawkScheduler(probe_ratio=params["probe_ratio"])


@register_policy(
    "hawk-no-stealing",
    params=HAWK_PARAMS,
    uses_stealing=False,
    uses_partition=True,
    ablation_of="hawk",
    doc="Hawk without the work-stealing mechanism",
)
def _hawk_no_stealing(params) -> HawkScheduler:
    return HawkScheduler(probe_ratio=params["probe_ratio"])
