"""Trace scaling for the prototype runtime (Section 4.1, "Real cluster run").

The paper scales its 3300-job Google sample to a 100-node cluster:

* task durations are divided by 1000 (seconds become milliseconds) and run
  as sleep tasks;
* the number of tasks per job is scaled down keeping the ratio between the
  cluster size and the largest job constant, compensating by increasing
  the duration of the remaining tasks so task-seconds are preserved;
* cluster load is varied through the mean job inter-arrival time expressed
  as a multiple of the mean task runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError
from repro.core.params import Param
from repro.workloads.google import (
    GOOGLE_CUTOFF_S,
    GoogleTraceConfig,
    google_like_trace,
)
from repro.workloads.registry import register_workload
from repro.workloads.spec import JobSpec, Trace


@dataclass(frozen=True, slots=True)
class PrototypeScaledTrace:
    """A time/size-scaled trace plus the factors needed to interpret it."""

    trace: Trace
    time_scale: float
    #: The long/short cutoff expressed in scaled seconds.
    cutoff: float
    #: Jobs classified long on the *original* trace.  Task-count
    #: compensation perturbs per-job mean durations, so classification is
    #: decided before scaling and carried through (the paper's estimates
    #: come from previous runs of the same jobs, i.e. pre-scaling data).
    long_job_ids: frozenset[int]

    def carried_estimate(self, spec: JobSpec) -> float:
        """Estimate that carries the original classification through scaling.

        The job's scaled mean, raised to the scaled cutoff for jobs long
        on the original trace and clamped below it for the rest
        (compensation can inflate a short job's mean past it).  Usable
        as a ``RunSpec.estimate`` (tag it ``"carried-classes"``) and as
        a service client's per-job estimate.
        """
        if spec.job_id in self.long_job_ids:
            return max(spec.mean_task_duration, self.cutoff)
        return min(spec.mean_task_duration, 0.99 * self.cutoff)


def scale_trace_for_prototype(
    trace: Trace,
    cluster_size: int,
    cutoff: float,
    time_scale: float | None = None,
    target_mean_task_runtime: float = 0.05,
    reference_cluster_size: int | None = None,
) -> PrototypeScaledTrace:
    """Scale a trace the way the paper prepares its prototype runs.

    ``reference_cluster_size`` is the cluster the trace was sized for; by
    default the largest job defines it (largest job == reference size, as
    keeping "the ratio between the cluster size and the largest number of
    tasks in a job" constant implies).

    The paper divides durations by a fixed 1000 (seconds to milliseconds);
    here ``time_scale=None`` instead picks the factor that makes the
    task-weighted mean task runtime equal ``target_mean_task_runtime``
    seconds, so a benchmark can bound its wall-clock cost explicitly.
    """
    if cluster_size <= 0:
        raise ConfigurationError(f"cluster_size must be positive, got {cluster_size}")
    if time_scale is not None and time_scale <= 0:
        raise ConfigurationError(f"time_scale must be positive, got {time_scale}")
    if target_mean_task_runtime <= 0:
        raise ConfigurationError("target_mean_task_runtime must be positive")
    largest = max(job.num_tasks for job in trace)
    reference = reference_cluster_size or largest
    task_factor = cluster_size / reference
    sized: list[tuple[JobSpec, int, float]] = []
    for job in trace:
        new_tasks = max(1, int(round(job.num_tasks * task_factor)))
        # Preserve task-seconds: stretch remaining tasks proportionally.
        mean = job.mean_task_duration * job.num_tasks / new_tasks
        sized.append((job, new_tasks, mean))
    if time_scale is None:
        total_ts = sum(tasks * mean for _, tasks, mean in sized)
        total_tasks = sum(tasks for _, tasks, mean in sized)
        time_scale = target_mean_task_runtime * total_tasks / total_ts
    scaled = [
        JobSpec(
            job.job_id,
            job.submit_time * time_scale,
            (mean * time_scale,) * new_tasks,
        )
        for job, new_tasks, mean in sized
    ]
    return PrototypeScaledTrace(
        trace=Trace(scaled, name=f"{trace.name}-prototype"),
        time_scale=time_scale,
        cutoff=cutoff * time_scale,
        long_job_ids=frozenset(
            job.job_id for job in trace if job.is_long(cutoff)
        ),
    )


def with_interarrival(trace: Trace, mean_interarrival: float, seed: int = 0) -> Trace:
    """Re-draw Poisson submission times with a new mean gap.

    Used by the load sweep of Figures 16-17, where load is controlled via
    the inter-arrival / mean-task-runtime ratio.
    """
    from repro.core.rng import make_rng
    from repro.workloads.arrivals import poisson_arrival_times

    rng = make_rng(seed, "rearrival")
    times = poisson_arrival_times(rng, len(trace), mean_interarrival)
    jobs = [
        JobSpec(job.job_id, t, job.task_durations)
        for job, t in zip(trace, times)
    ]
    return Trace(jobs, name=trace.name)


#: The paper's fixed seconds-to-milliseconds prototype scaling.  Fixed
#: (not a param) so the entry's scaled cutoff metadata stays truthful.
_PROTOTYPE_TIME_SCALE = 0.001


@register_workload(
    "google-prototype",
    params=(
        Param("n_jobs", int, default=3300, minimum=10, maximum=1_000_000,
              doc="jobs sampled from the Google-like generator"),
        Param("cluster_size", int, default=100, minimum=1, maximum=100_000,
              doc="target cluster the task counts are rescaled for"),
    ),
    cutoff=GOOGLE_CUTOFF_S * _PROTOTYPE_TIME_SCALE,
    short_partition_fraction=0.17,
    quick_params={"n_jobs": 80},
)
def _google_prototype_workload(params, seed: int) -> Trace:
    """Google-like sample scaled for prototype runs (Section 4.1 recipe)."""
    base = google_like_trace(GoogleTraceConfig(n_jobs=params["n_jobs"]), seed=seed)
    scaled = scale_trace_for_prototype(
        base,
        cluster_size=params["cluster_size"],
        cutoff=GOOGLE_CUTOFF_S,
        time_scale=_PROTOTYPE_TIME_SCALE,
    )
    return scaled.trace
