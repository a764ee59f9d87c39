"""Normalized comparisons between two runs (the paper's main metric).

"When comparing Hawk to another approach X, we mostly take the ratio
between the 50th (or 90th) percentile job runtime for Hawk and the 50th
(or 90th) percentile job runtime for X" (Section 4.1).  Figure 5c adds the
fraction of jobs Hawk improves (or matches) and the average job-runtime
ratio.  Lower values favor the numerator system.

Each public metric extracts a run's per-class job ids and runtimes once,
as arrays from the run's job columns, and sorts the runtimes at most
once; :func:`compare_runs` shares that extraction across all four
metrics.  Every formula lives in one private helper, so the bundled and
the single-metric results are bit-identical.  The array operations
(class masks, ``completion - submit``, a stable sort, id matching) do
the same IEEE operations as a loop over records would, and every value
returned is a built-in ``float``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.job import JobClass
from repro.cluster.records import Floats, Ints, RunResult
from repro.core.errors import ConfigurationError
from repro.metrics.percentiles import percentile_of_sorted

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


def _sorted(runtimes: Floats) -> list[float]:
    # Stable, as ``sorted`` is: equal keys (0.0 and -0.0) keep their order.
    return np.sort(runtimes, kind="stable").tolist()


def _percentile_ratio(
    num_sorted: list[float], den_sorted: list[float], p: float
) -> float:
    return percentile_of_sorted(num_sorted, p) / percentile_of_sorted(den_sorted, p)


def _mean_ratio(num: Floats, den: Floats) -> float:
    # Python's left-to-right sums in record order: np.sum adds pairwise,
    # and the sorted copies would round differently.
    return (sum(num.tolist()) / len(num)) / (sum(den.tolist()) / len(den))


def _fraction_improved(cand: _ClassJobs, base: _ClassJobs, tolerance: float) -> float:
    (cand_ids, cand_runtimes), (base_ids, base_runtimes) = cand, base
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
    improved = int(
        np.count_nonzero(cand_runtimes[paired] <= base_paired * (1.0 + tolerance))
    )
    return improved / matched


def percentile_ratios(
    numerator: RunResult,
    denominator: RunResult,
    job_class: JobClass | None,
    ps: Sequence[float],
) -> tuple[float, ...]:
    """:func:`normalized_percentile` at each of ``ps``, sorting each run once."""
    (_, num), (_, den) = _both(numerator, denominator, job_class)
    num_sorted, den_sorted = _sorted(num), _sorted(den)
    return tuple(_percentile_ratio(num_sorted, den_sorted, p) for p in ps)


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
    cand_sorted = _sorted(cand[1])
    base_sorted = _sorted(base[1])
    return Comparison(
        job_class=job_class,
        p50_ratio=_percentile_ratio(cand_sorted, base_sorted, 50.0),
        p90_ratio=_percentile_ratio(cand_sorted, base_sorted, 90.0),
        avg_ratio=_mean_ratio(cand[1], base[1]),
        fraction_improved=_fraction_improved(cand, base, _TOLERANCE),
    )
