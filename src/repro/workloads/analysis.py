"""Workload statistics: the numbers behind Tables 1-2 and Figure 4."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.errors import ConfigurationError
from repro.workloads.spec import JobSpec


def long_job_fraction(trace: Iterable[JobSpec], cutoff: float) -> float:
    """Fraction of jobs whose mean task duration is >= cutoff (Table 1)."""
    total = 0
    longs = 0
    for job in trace:
        total += 1
        if job.is_long(cutoff):
            longs += 1
    if total == 0:
        raise ConfigurationError("empty trace")
    return longs / total


def task_seconds_share(trace: Iterable[JobSpec], cutoff: float) -> float:
    """Share of total task-seconds contributed by long jobs (Table 1)."""
    long_ts = 0.0
    total_ts = 0.0
    for job in trace:
        ts = job.task_seconds
        total_ts += ts
        if job.is_long(cutoff):
            long_ts += ts
    if total_ts == 0:
        raise ConfigurationError("trace has zero work")
    return long_ts / total_ts


def tasks_share(trace: Iterable[JobSpec], cutoff: float) -> float:
    """Share of all tasks belonging to long jobs (Section 2.1: 28%)."""
    long_tasks = 0
    total_tasks = 0
    for job in trace:
        total_tasks += job.num_tasks
        if job.is_long(cutoff):
            long_tasks += job.num_tasks
    if total_tasks == 0:
        raise ConfigurationError("empty trace")
    return long_tasks / total_tasks


def mean_duration_ratio(trace: Iterable[JobSpec], cutoff: float) -> float:
    """Avg task duration of long jobs over short jobs (Section 2.1: 7.34x).

    Both averages are job-level means averaged over jobs, matching the
    paper's "average task duration ... of the remaining 90% of jobs".
    """
    long_means: list[float] = []
    short_means: list[float] = []
    for job in trace:
        (long_means if job.is_long(cutoff) else short_means).append(
            job.mean_task_duration
        )
    if not long_means or not short_means:
        raise ConfigurationError("trace lacks one of the two classes")
    long_avg = sum(long_means) / len(long_means)
    short_avg = sum(short_means) / len(short_means)
    return long_avg / short_avg


@dataclass(frozen=True, slots=True)
class WorkloadSummary:
    """The Table 1 / Table 2 row for one workload."""

    name: str
    total_jobs: int
    long_fraction: float
    task_seconds_share: float
    tasks_share: float
    duration_ratio: float


def workload_summary(trace, cutoff: float, name: str | None = None) -> WorkloadSummary:
    """Compute all Table 1 / 2 statistics in one pass-friendly call."""
    jobs = list(trace)
    return WorkloadSummary(
        name=name or getattr(trace, "name", "trace"),
        total_jobs=len(jobs),
        long_fraction=long_job_fraction(jobs, cutoff),
        task_seconds_share=task_seconds_share(jobs, cutoff),
        tasks_share=tasks_share(jobs, cutoff),
        duration_ratio=mean_duration_ratio(jobs, cutoff),
    )


def cdf_points(values: Sequence[float]) -> tuple[list[float], list[float]]:
    """Empirical CDF: sorted values and cumulative percentages (0-100].

    The return shape matches the paper's CDF plots (Figures 1 and 4):
    x = value, y = percent of population at or below it.
    """
    if not values:
        raise ConfigurationError("cannot build a CDF from no values")
    xs = sorted(values)
    n = len(xs)
    ys = [100.0 * (i + 1) / n for i in range(n)]
    return xs, ys
