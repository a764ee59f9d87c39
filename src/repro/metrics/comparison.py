"""Normalized comparisons between two runs (the paper's main metric).

"When comparing Hawk to another approach X, we mostly take the ratio
between the 50th (or 90th) percentile job runtime for Hawk and the 50th
(or 90th) percentile job runtime for X" (Section 4.1).  Figure 5c adds the
fraction of jobs Hawk improves (or matches) and the average job-runtime
ratio.  Lower values favor the numerator system.

Each public metric extracts a run's per-class job ids and runtimes once,
as arrays from the run's job columns; :func:`compare_runs` shares that
extraction across all four metrics.  No runtime column is sorted: a
percentile selects only the ranks it reads
(:func:`~repro.metrics.percentiles.column_percentiles`), and two runs
that list the same jobs in id order are paired by position.  Every
formula lives in one private helper, so the bundled and the
single-metric results are bit-identical.  The array operations (class
masks, ``completion - submit``, rank selection, id matching) pick and
combine the same floats as a loop over records and a stable sort would,
and every value returned is a built-in ``float``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.job import JobClass
from repro.cluster.records import Floats, Ints, RunResult
from repro.core.errors import ConfigurationError
from repro.metrics.percentiles import column_percentiles

#: :func:`fraction_improved`'s default slack: a candidate job counts as
#: improved when its runtime is at most the baseline's times ``1 + this``.
_TOLERANCE = 1e-9

_ClassJobs = tuple[Ints, Floats]


def _class_jobs(run: RunResult, job_class: JobClass | None) -> _ClassJobs:
    """Job ids and runtimes of one class (by *true* class), in record order."""
    index = run.class_index(job_class)
    return run.job_columns.job_id[index], run.runtime_column(index)


def _both(
    numerator: RunResult, denominator: RunResult, job_class: JobClass | None
) -> tuple[_ClassJobs, _ClassJobs]:
    num = _class_jobs(numerator, job_class)
    den = _class_jobs(denominator, job_class)
    if not num[1].size or not den[1].size:
        raise ConfigurationError(f"no jobs of class {job_class} in one of the runs")
    return num, den


def _percentile_ratios(
    num: Floats, den: Floats, ps: Sequence[float]
) -> tuple[float, ...]:
    return tuple(
        a / b for a, b in zip(column_percentiles(num, ps), column_percentiles(den, ps))
    )


def _mean_ratio(num: Floats, den: Floats) -> float:
    # Python's sums of the floats in record order (compensated on 3.12+):
    # np.sum adds pairwise and would round differently.
    return (sum(memoryview(num)) / len(num)) / (sum(memoryview(den)) / len(den))


def _same_sorted_ids(a: Ints, b: Ints) -> bool:
    """Both runs list the same jobs, each once, in increasing id order."""
    return np.array_equal(a, b) and bool(np.all(a[1:] > a[:-1]))


def _fraction_improved(cand: _ClassJobs, base: _ClassJobs, tolerance: float) -> float:
    (cand_ids, cand_runtimes), (base_ids, base_runtimes) = cand, base
    slack = 1.0 + tolerance
    if _same_sorted_ids(cand_ids, base_ids):
        # Job i of each run is the same job: pair them by position.
        improved = np.count_nonzero(cand_runtimes <= base_runtimes * slack)
        return int(improved) / cand_ids.size
    order = np.argsort(base_ids, kind="stable")
    sorted_ids = base_ids[order]
    # The last baseline job of each id, as a dict built in record order
    # would keep; -1 where every baseline id is larger.
    last = np.searchsorted(sorted_ids, cand_ids, side="right") - 1
    paired = last >= 0
    paired[paired] = sorted_ids[last[paired]] == cand_ids[paired]
    matched = int(np.count_nonzero(paired))
    if matched == 0:
        raise ConfigurationError("runs share no job ids; cannot pair jobs")
    base_paired = base_runtimes[order[last[paired]]]
    improved = int(np.count_nonzero(cand_runtimes[paired] <= base_paired * slack))
    return improved / matched


def percentile_ratios(
    numerator: RunResult,
    denominator: RunResult,
    job_class: JobClass | None,
    ps: Sequence[float],
) -> tuple[float, ...]:
    """:func:`normalized_percentile` at each of ``ps``, selecting each run's
    ranks once."""
    (_, num), (_, den) = _both(numerator, denominator, job_class)
    return _percentile_ratios(num, den, ps)


def normalized_percentile(
    numerator: RunResult,
    denominator: RunResult,
    job_class: JobClass | None,
    p: float,
) -> float:
    """p-th percentile runtime of ``numerator`` over that of ``denominator``."""
    return percentile_ratios(numerator, denominator, job_class, (p,))[0]


def average_runtime_ratio(
    numerator: RunResult, denominator: RunResult, job_class: JobClass | None
) -> float:
    """Ratio of mean job runtimes (Figure 5c's second metric)."""
    (_, num), (_, den) = _both(numerator, denominator, job_class)
    return _mean_ratio(num, den)


def fraction_improved(
    candidate: RunResult,
    baseline: RunResult,
    job_class: JobClass | None,
    tolerance: float = _TOLERANCE,
) -> float:
    """Fraction of jobs for which the candidate is better than or equal to
    the baseline (Figure 5c's first metric).  Jobs are matched by id."""
    cand, base = _both(candidate, baseline, job_class)
    return _fraction_improved(cand, base, tolerance)


@dataclass(frozen=True, slots=True)
class Comparison:
    """All paper metrics for one (candidate, baseline) pair and class."""

    job_class: JobClass | None
    p50_ratio: float
    p90_ratio: float
    avg_ratio: float
    fraction_improved: float


def compare_runs(
    candidate: RunResult, baseline: RunResult, job_class: JobClass | None
) -> Comparison:
    cand, base = _both(candidate, baseline, job_class)
    p50_ratio, p90_ratio = _percentile_ratios(cand[1], base[1], (50.0, 90.0))
    return Comparison(
        job_class=job_class,
        p50_ratio=p50_ratio,
        p90_ratio=p90_ratio,
        avg_ratio=_mean_ratio(cand[1], base[1]),
        fraction_improved=_fraction_improved(cand, base, _TOLERANCE),
    )
