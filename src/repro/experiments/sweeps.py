"""Matched-replica candidate-vs-baseline comparisons for every figure.

Every comparison figure has the same skeleton: run a candidate scheduler
and a baseline on one trace, and report candidate-normalized-to-baseline
percentile runtimes per job class.  Figures 5, 6, 8-9 and 10-11 sweep
the cluster size; Figures 7, 12-13, 14, 15, the batch-size and the
scenario figures hold the high-load size and vary something else (the
policy variant, cutoff, estimator, steal cap, probe budget or workload),
one single-size :class:`SweepJob` per axis value.  All of them run
through :func:`multi_sweep` and read their cells off
:class:`ReplicatedPoint`, so the ratio, its replica statistics and its
paired-t p-value are computed in one place.

All runs flow through the
:class:`~repro.experiments.parallel.SweepExecutor` streaming core
(:meth:`~repro.experiments.parallel.SweepExecutor.run_stream`), which
deduplicates them against the two-tier run cache and keeps pool workers
fed under a bounded in-flight window.  :func:`multi_sweep` chains
several jobs through one continuous stream, so a slow point in one job
does not stall the next behind a batch barrier; it slots completions
back by submission index and, once the stream ends, folds each job's
slice into :class:`ReplicatedPoint` values.  :func:`sweep` is the
one-job case.

Seed replication: with ``n_seeds > 1`` every point fans out into
``n_seeds`` matched replicas — replica ``r`` runs *both* schedulers with
seed ``base + r`` on the same trace draw (an independent draw per
replica when the job has a trace factory) — and the sweep returns
:class:`ReplicatedPoint` aggregates.  Per-replica ratios are computed
within the matched pair before aggregation, so trace-level noise common
to candidate and baseline cancels.  ``n_seeds=1`` is the degenerate
case: one replica, whose cells are its values bit-for-bit.  Replica
pairs come from :func:`~repro.experiments.parallel.replica_pairs`, the
executor's one replica expansion, and cells from
:func:`~repro.metrics.stats.cell`, the one "single replica → value,
several → statistics" rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.job import JobClass
from repro.cluster.records import RunResult
from repro.core.errors import ConfigurationError
from repro.experiments.config import RunSpec
from repro.experiments.parallel import SweepExecutor, get_executor, replica_pairs
from repro.metrics.comparison import (
    average_runtime_ratio,
    fraction_improved,
    percentile_ratios,
)
from repro.metrics.stats import SummaryStats, cell, mean
from repro.workloads.registry import WorkloadSpec
from repro.workloads.replication import TraceFactory, replica_seeds
from repro.workloads.spec import Trace


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One replica of one cluster size of a candidate-vs-baseline sweep."""

    n_workers: int
    baseline_median_utilization: float
    short_p50_ratio: float
    short_p90_ratio: float
    long_p50_ratio: float
    long_p90_ratio: float
    candidate: RunResult
    baseline: RunResult


#: The scalar metrics a SweepPoint carries (aggregatable per replica).
POINT_METRICS = (
    "baseline_median_utilization",
    "short_p50_ratio",
    "short_p90_ratio",
    "long_p50_ratio",
    "long_p90_ratio",
)

#: The :data:`POINT_METRICS` that are candidate/baseline ratios, in the
#: comparison tables' column order.  Their replica statistics carry a
#: paired-t p-value against parity (null = 1.0); utilization is a
#: magnitude, so no null applies to it.
RATIO_METRICS = POINT_METRICS[1:]

#: The same ratios with the long class first, as Figures 12-14 print them.
LONG_FIRST = RATIO_METRICS[2:] + RATIO_METRICS[:2]


@dataclass(frozen=True, slots=True)
class ReplicatedPoint:
    """One cluster size, aggregated over matched seed replicas.

    ``replicas[r]`` holds the :class:`SweepPoint` for replica seed
    ``seeds[r]``; candidate and baseline of a replica share that seed
    (and trace draw), so each replica's ratios are a matched-pair sample.
    :meth:`cell` returns one metric's table cell and :meth:`cells` those
    of several.
    """

    n_workers: int
    seeds: tuple[int, ...]
    replicas: tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        if not self.replicas or len(self.seeds) != len(self.replicas):
            raise ConfigurationError(
                f"need one seed per replica, got {len(self.seeds)} seeds "
                f"for {len(self.replicas)} replicas"
            )

    @property
    def n_seeds(self) -> int:
        return len(self.replicas)

    def cell(self, metric: str) -> float | SummaryStats:
        """One metric's table cell (see :func:`~repro.metrics.stats.cell`)."""
        null = 1.0 if metric in RATIO_METRICS else None
        return cell([getattr(r, metric) for r in self.replicas], null=null)

    def cells(self, *metrics: str) -> tuple[float | SummaryStats, ...]:
        """The table cells of several metrics, in order."""
        return tuple(self.cell(metric) for metric in metrics)


def _build_point(
    n_workers: int, candidate: RunResult, baseline: RunResult
) -> SweepPoint:
    baseline_median_utilization = baseline.median_utilization()
    short_p50, short_p90 = percentile_ratios(
        candidate, baseline, JobClass.SHORT, (50, 90)
    )
    long_p50, long_p90 = percentile_ratios(candidate, baseline, JobClass.LONG, (50, 90))
    return SweepPoint(
        n_workers=n_workers,
        baseline_median_utilization=baseline_median_utilization,
        short_p50_ratio=short_p50,
        short_p90_ratio=short_p90,
        long_p50_ratio=long_p50,
        long_p90_ratio=long_p90,
        candidate=candidate,
        baseline=baseline,
    )


@dataclass(frozen=True, slots=True)
class SweepJob:
    """One candidate-vs-baseline comparison inside a :func:`multi_sweep` stream.

    ``sizes`` is the cluster-size axis.  A figure that holds the size
    fixed and varies a spec field instead (cutoff, steal cap, estimator
    ...) runs one single-size job per axis value.

    A :class:`~repro.workloads.registry.WorkloadSpec` in place of the
    trace materializes lazily — only when the stream actually reaches
    this job — at the candidate spec's seed, and serves as the
    per-replica trace factory unless one is given.  A plain
    :class:`~repro.workloads.spec.Trace` without a factory stays fixed
    across replicas.
    """

    trace: Trace | WorkloadSpec
    sizes: tuple[int, ...]
    candidate_spec: RunSpec
    baseline_spec: RunSpec
    trace_factory: TraceFactory | None = None


def _sweep_pairs(job: SweepJob, n_seeds: int):
    """Yield one job's (spec, trace) pairs: per size, per replica, the
    candidate then the baseline.

    The candidate's :func:`replica_pairs` fix each replica's trace
    draw; the baseline replica runs on the same draw.
    """
    candidates = replica_pairs(
        job.candidate_spec, job.trace, n_seeds, job.trace_factory
    )
    baselines = job.baseline_spec.replicas(n_seeds)
    for n in job.sizes:
        for (candidate, trace), baseline in zip(candidates, baselines):
            yield candidate.with_(n_workers=n), trace
            yield baseline.with_(n_workers=n), trace


def multi_sweep(
    jobs: Sequence[SweepJob],
    executor: SweepExecutor | None = None,
    n_seeds: int = 1,
) -> list[list[ReplicatedPoint]]:
    """Run several sweeps as ONE continuous executor stream.

    Returns one points list per job, in job order — element ``j`` equals
    ``sweep(*jobs[j])`` exactly.  The difference is wall-clock shape:
    chaining ``sweep`` calls joins on every grid before starting the
    next (each batch serializes behind its slowest run), whereas here
    the pairs of all jobs feed one stream, so workers move on to job
    ``j+1``'s runs while job ``j``'s stragglers finish.  A run shared by
    several jobs (the common baseline of a fixed-size figure) has one
    cache key and executes once.
    """
    executor = executor or get_executor()
    jobs = list(jobs)
    total = 2 * n_seeds * sum(len(job.sizes) for job in jobs)
    pairs = (pair for job in jobs for pair in _sweep_pairs(job, n_seeds))
    results: list[RunResult | None] = [None] * total
    for index, _key, result in executor.run_stream(pairs, total=total):
        results[index] = result
    runs = iter(results)
    points = []
    for job in jobs:
        seeds = replica_seeds(job.candidate_spec.seed, n_seeds)
        points.append(
            [
                ReplicatedPoint(
                    n_workers=n,
                    seeds=seeds,
                    replicas=tuple(
                        _build_point(n, next(runs), next(runs)) for _ in seeds
                    ),
                )
                for n in job.sizes
            ]
        )
    return points


def sweep(
    trace: Trace | WorkloadSpec,
    sizes,
    candidate_spec: RunSpec,
    baseline_spec: RunSpec,
    executor: SweepExecutor | None = None,
    n_seeds: int = 1,
    trace_factory: TraceFactory | None = None,
) -> list[ReplicatedPoint]:
    """Compare the two schedulers at every cluster size.

    :func:`multi_sweep` of one :class:`SweepJob`: candidate and
    baseline, every size, every replica seed run as one executor
    stream.  Replica seeds derive from the candidate spec's seed
    (drivers give candidate and baseline the same base seed; each
    spec's own base is offset per-replica, keeping the pairing matched
    either way).
    """
    job = SweepJob(trace, tuple(sizes), candidate_spec, baseline_spec, trace_factory)
    return multi_sweep([job], executor, n_seeds)[0]


def extra_metrics(
    point: ReplicatedPoint | SweepPoint, job_class: JobClass
) -> tuple[float, float]:
    """Figure 5c metrics: (fraction improved-or-equal, avg runtime ratio).

    For a replicated point these are matched-seed replica means; with a
    single replica, the historical per-run values bit-for-bit.
    """
    replicas = point.replicas if isinstance(point, ReplicatedPoint) else (point,)
    return (
        mean(
            [
                fraction_improved(r.candidate, r.baseline, job_class)
                for r in replicas
            ]
        ),
        mean(
            [
                average_runtime_ratio(r.candidate, r.baseline, job_class)
                for r in replicas
            ]
        ),
    )
