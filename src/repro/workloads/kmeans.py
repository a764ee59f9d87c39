"""Cloudera / Facebook / Yahoo workloads from k-means cluster descriptions.

Section 4.1 of the paper: "In [4, 5] the workloads are described as
k-means clusters, and the first cluster is deemed composed of short jobs.
[...] We then use the derived centroid values as the scale parameter in an
exponential distribution in order to obtain the number of tasks and the
mean task duration for each job.  Given the mean task duration we derive
task runtimes using a Gaussian distribution with standard deviation twice
the mean, excluding negative values."

We follow that recipe literally.  The centroid tables themselves are our
reconstruction (the originals are only summarized in the cited papers);
they are tuned so the generated workloads land near the Table 1/Table 2
statistics, which the Table 1 benchmark reports measured-vs-paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.params import Param
from repro.core.rng import make_rng
from repro.workloads.arrivals import poisson_arrival_times
from repro.workloads.registry import register_workload
from repro.workloads.spec import JobSpec, Trace


@dataclass(frozen=True, slots=True)
class KMeansCluster:
    """One k-means cluster: population weight and centroid values."""

    weight: float
    tasks_centroid: float
    duration_centroid: float


@dataclass(frozen=True, slots=True)
class KMeansWorkloadSpec:
    """A workload described as k-means clusters (first cluster = short)."""

    name: str
    clusters: tuple[KMeansCluster, ...]
    cutoff: float
    short_partition_fraction: float
    paper_long_fraction: float
    paper_task_seconds_share: float
    paper_total_jobs: int

    def __post_init__(self) -> None:
        total = sum(c.weight for c in self.clusters)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"{self.name}: cluster weights sum to {total}, expected 1.0"
            )


#: Cloudera-C 2011 (paper: 5.02% long jobs, 92.79% task-seconds, 21030 jobs).
CLOUDERA_C = KMeansWorkloadSpec(
    name="cloudera-c",
    clusters=(
        KMeansCluster(weight=0.9498, tasks_centroid=20.0, duration_centroid=90.0),
        KMeansCluster(weight=0.0320, tasks_centroid=120.0, duration_centroid=900.0),
        KMeansCluster(weight=0.0130, tasks_centroid=300.0, duration_centroid=2500.0),
        KMeansCluster(weight=0.0052, tasks_centroid=600.0, duration_centroid=3500.0),
    ),
    cutoff=700.0,
    short_partition_fraction=0.09,
    paper_long_fraction=0.0502,
    paper_task_seconds_share=0.9279,
    paper_total_jobs=21030,
)

#: Facebook 2010 (paper: 2.01% long jobs, 99.79% task-seconds, 1169184 jobs).
FACEBOOK_2010 = KMeansWorkloadSpec(
    name="facebook-2010",
    clusters=(
        KMeansCluster(weight=0.9799, tasks_centroid=5.0, duration_centroid=30.0),
        KMeansCluster(weight=0.0120, tasks_centroid=200.0, duration_centroid=1500.0),
        KMeansCluster(weight=0.0060, tasks_centroid=800.0, duration_centroid=4000.0),
        KMeansCluster(weight=0.0021, tasks_centroid=2500.0, duration_centroid=8000.0),
    ),
    cutoff=400.0,
    short_partition_fraction=0.02,
    paper_long_fraction=0.0201,
    paper_task_seconds_share=0.9979,
    paper_total_jobs=1169184,
)

#: Yahoo 2011 (paper: 9.41% long jobs, 98.31% task-seconds, 24262 jobs).
YAHOO_2011 = KMeansWorkloadSpec(
    name="yahoo-2011",
    clusters=(
        KMeansCluster(weight=0.8959, tasks_centroid=25.0, duration_centroid=60.0),
        KMeansCluster(weight=0.0700, tasks_centroid=150.0, duration_centroid=1200.0),
        KMeansCluster(weight=0.0250, tasks_centroid=400.0, duration_centroid=3000.0),
        KMeansCluster(weight=0.0091, tasks_centroid=1200.0, duration_centroid=7000.0),
    ),
    cutoff=800.0,
    short_partition_fraction=0.02,
    paper_long_fraction=0.0941,
    paper_task_seconds_share=0.9831,
    paper_total_jobs=24262,
)

ALL_KMEANS_WORKLOADS = (CLOUDERA_C, FACEBOOK_2010, YAHOO_2011)


def _positive_gaussian_durations(
    rng: np.random.Generator, n_tasks: int, mean: float
) -> tuple[float, ...]:
    """N(mean, 2*mean) excluding non-positive values (the paper's recipe)."""
    out = np.empty(n_tasks)
    filled = 0
    while filled < n_tasks:
        draw = rng.normal(mean, 2.0 * mean, size=n_tasks - filled)
        draw = draw[draw > 0.0]
        out[filled : filled + len(draw)] = draw
        filled += len(draw)
    return tuple(out.tolist())


def kmeans_trace(
    spec: KMeansWorkloadSpec,
    n_jobs: int,
    mean_interarrival: float,
    seed: int = 0,
    max_tasks_per_job: int = 8000,
) -> Trace:
    """Generate ``n_jobs`` jobs following the workload's cluster mixture."""
    if n_jobs <= 0:
        raise ConfigurationError(f"n_jobs must be positive, got {n_jobs}")
    rng = make_rng(seed, f"kmeans-{spec.name}")
    arrival_rng = make_rng(seed, f"kmeans-arrivals-{spec.name}")
    arrivals = poisson_arrival_times(arrival_rng, n_jobs, mean_interarrival)

    # Stratified assignment: each cluster gets round(weight * n) jobs
    # (largest-remainder method), so small long-job clusters are always
    # represented even in downscaled traces; order is then shuffled.
    quotas = [c.weight * n_jobs for c in spec.clusters]
    counts = [int(q) for q in quotas]
    remainders = sorted(
        range(len(quotas)), key=lambda i: quotas[i] - counts[i], reverse=True
    )
    for i in range(n_jobs - sum(counts)):
        counts[remainders[i % len(remainders)]] += 1
    cluster_ids = np.repeat(np.arange(len(spec.clusters)), counts)
    rng.shuffle(cluster_ids)

    jobs: list[JobSpec] = []
    for job_id, submit in enumerate(arrivals):
        cluster = spec.clusters[int(cluster_ids[job_id])]
        n_tasks = min(
            max(round(rng.exponential(cluster.tasks_centroid)), 1), max_tasks_per_job
        )
        mean_duration = max(1.0, float(rng.exponential(cluster.duration_centroid)))
        durations = _positive_gaussian_durations(rng, n_tasks, mean_duration)
        jobs.append(JobSpec(job_id, submit, durations))
    return Trace(jobs, name=spec.name)


# -- registry entries ----------------------------------------------------
def _register_kmeans(spec: KMeansWorkloadSpec) -> None:
    """One registry entry per k-means-described workload."""

    @register_workload(
        spec.name,
        params=(
            Param("n_jobs", int, default=900, minimum=1, maximum=1_000_000,
                  doc="jobs in the generated trace"),
            Param("mean_interarrival", float, default=20.0, minimum=0.001,
                  maximum=1e6,
                  doc="mean Poisson job inter-arrival gap (s)"),
            Param("max_tasks_per_job", int, default=8000, minimum=1,
                  maximum=1_000_000,
                  doc="clamp on the exponential task-count draw"),
        ),
        cutoff=spec.cutoff,
        short_partition_fraction=spec.short_partition_fraction,
        quick_params={"n_jobs": 240},
        doc=f"{spec.name} workload from its k-means cluster description",
    )
    def _build(params, seed: int, _spec=spec) -> Trace:
        return kmeans_trace(
            _spec,
            n_jobs=params["n_jobs"],
            mean_interarrival=params["mean_interarrival"],
            seed=seed,
            max_tasks_per_job=params["max_tasks_per_job"],
        )


for _spec in ALL_KMEANS_WORKLOADS:
    _register_kmeans(_spec)
del _spec
