"""The shared-extraction metrics return exactly what the per-metric
formulas did.

``compare_runs`` and ``sweeps._build_point`` extract each run's per-class
runtimes once and sort them once.  The reference functions below are
verbatim copies of the per-metric formulas they replaced (each one
re-extracting and re-sorting); on random run pairs, including empty
classes, partly overlapping job ids and tied runtimes, both must agree
bit for bit (``==`` on floats) and raise the same errors.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cluster.job import JobClass
from repro.cluster.records import JobRecord, RunResult, UtilizationSample
from repro.core.errors import ConfigurationError
from repro.experiments.sweeps import SweepPoint, _build_point
from repro.metrics.comparison import (
    Comparison,
    average_runtime_ratio,
    compare_runs,
    fraction_improved,
    normalized_percentile,
)


# -- reference: the per-metric formulas, as they were -------------------------
def ref_percentile(values, p):
    if not values:
        raise ConfigurationError("cannot take a percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {p}")
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    rank = (p / 100.0) * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    if xs[lo] == xs[hi]:
        return xs[lo]
    frac = rank - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


def ref_runtimes(run, job_class):
    return [
        j.runtime for j in run.jobs if job_class is None or j.true_class is job_class
    ]


def ref_records(run, job_class):
    return [j for j in run.jobs if job_class is None or j.true_class is job_class]


def ref_normalized_percentile(numerator, denominator, job_class, p):
    num = ref_runtimes(numerator, job_class)
    den = ref_runtimes(denominator, job_class)
    if not num or not den:
        raise ConfigurationError(f"no jobs of class {job_class} in one of the runs")
    return ref_percentile(num, p) / ref_percentile(den, p)


def ref_average_runtime_ratio(numerator, denominator, job_class):
    num = ref_runtimes(numerator, job_class)
    den = ref_runtimes(denominator, job_class)
    if not num or not den:
        raise ConfigurationError(f"no jobs of class {job_class} in one of the runs")
    return (sum(num) / len(num)) / (sum(den) / len(den))


def ref_fraction_improved(candidate, baseline, job_class, tolerance=1e-9):
    base_by_id = {r.job_id: r.runtime for r in ref_records(baseline, job_class)}
    cand = ref_records(candidate, job_class)
    if not cand or not base_by_id:
        raise ConfigurationError(f"no jobs of class {job_class} in one of the runs")
    improved = 0
    matched = 0
    for record in cand:
        base = base_by_id.get(record.job_id)
        if base is None:
            continue
        matched += 1
        if record.runtime <= base * (1.0 + tolerance):
            improved += 1
    if matched == 0:
        raise ConfigurationError("runs share no job ids; cannot pair jobs")
    return improved / matched


def ref_compare_runs(candidate, baseline, job_class):
    return Comparison(
        job_class=job_class,
        p50_ratio=ref_normalized_percentile(candidate, baseline, job_class, 50.0),
        p90_ratio=ref_normalized_percentile(candidate, baseline, job_class, 90.0),
        avg_ratio=ref_average_runtime_ratio(candidate, baseline, job_class),
        fraction_improved=ref_fraction_improved(candidate, baseline, job_class),
    )


def ref_build_point(n_workers, candidate, baseline):
    short, long = JobClass.SHORT, JobClass.LONG
    return SweepPoint(
        n_workers=n_workers,
        baseline_median_utilization=baseline.median_utilization(),
        short_p50_ratio=ref_normalized_percentile(candidate, baseline, short, 50),
        short_p90_ratio=ref_normalized_percentile(candidate, baseline, short, 90),
        long_p50_ratio=ref_normalized_percentile(candidate, baseline, long, 50),
        long_p90_ratio=ref_normalized_percentile(candidate, baseline, long, 90),
        candidate=candidate,
        baseline=baseline,
    )


# -- random run pairs ----------------------------------------------------------
#: A few runtimes drawn often, so ties (within and across runs) are common.
TIED = (0.5, 1.0, 2.5, 7.0)

job_fields = st.tuples(
    st.floats(0.0, 1_000.0),
    st.one_of(st.sampled_from(TIED), st.floats(0.01, 10_000.0)),
    st.sampled_from([JobClass.SHORT, JobClass.LONG]),
)


@st.composite
def runs(draw):
    """A run whose job ids come from a small shared pool (partial overlap)."""
    jobs = draw(st.dictionaries(st.integers(0, 24), job_fields, max_size=14))
    n_workers = draw(st.integers(1, 8))
    busy = draw(st.lists(st.integers(0, n_workers), max_size=5))
    return RunResult(
        scheduler_name="x",
        n_workers=n_workers,
        jobs=tuple(
            JobRecord(
                job_id=job_id,
                submit_time=submit,
                completion_time=submit + runtime,
                num_tasks=1,
                true_mean_task_duration=runtime,
                estimated_task_duration=runtime,
                task_seconds=runtime,
                scheduled_class=job_class,
                true_class=job_class,
                stolen_tasks=0,
            )
            for job_id, (submit, runtime, job_class) in jobs.items()
        ),
        utilization=tuple(
            UtilizationSample(100.0 * i, b, n_workers) for i, b in enumerate(busy)
        ),
    )


def outcome(fn, *args):
    """The value, or the error's type and message."""
    try:
        return fn(*args)
    except ConfigurationError as exc:
        return ("ConfigurationError", str(exc))


job_classes = st.sampled_from([JobClass.SHORT, JobClass.LONG, None])


@settings(max_examples=300, deadline=None)
@given(runs(), runs(), job_classes)
def test_compare_runs_matches_per_metric_formulas(candidate, baseline, job_class):
    assert outcome(compare_runs, candidate, baseline, job_class) == outcome(
        ref_compare_runs, candidate, baseline, job_class
    )


@settings(max_examples=200, deadline=None)
@given(runs(), runs(), job_classes, st.sampled_from([0.0, 25.0, 50, 90.0, 100.0]))
def test_single_metrics_match_per_metric_formulas(candidate, baseline, job_class, p):
    for new, ref, args in (
        (normalized_percentile, ref_normalized_percentile, (job_class, p)),
        (average_runtime_ratio, ref_average_runtime_ratio, (job_class,)),
        (fraction_improved, ref_fraction_improved, (job_class,)),
    ):
        assert outcome(new, candidate, baseline, *args) == outcome(
            ref, candidate, baseline, *args
        ), new.__name__


@settings(max_examples=300, deadline=None)
@given(runs(), runs(), st.integers(1, 100))
def test_build_point_matches_per_metric_formulas(candidate, baseline, n_workers):
    assert outcome(_build_point, n_workers, candidate, baseline) == outcome(
        ref_build_point, n_workers, candidate, baseline
    )


def test_error_messages_are_unchanged():
    empty = RunResult(scheduler_name="x", n_workers=1, jobs=(), utilization=())
    record = JobRecord(0, 0.0, 1.0, 1, 1.0, 1.0, 1.0, JobClass.SHORT, JobClass.SHORT, 0)
    one = RunResult(scheduler_name="x", n_workers=1, jobs=(record,), utilization=())
    other = RunResult(
        scheduler_name="x",
        n_workers=1,
        jobs=(record._replace(job_id=1),),
        utilization=(),
    )
    no_jobs = (
        "ConfigurationError",
        "no jobs of class JobClass.SHORT in one of the runs",
    )
    assert outcome(compare_runs, one, empty, JobClass.SHORT) == no_jobs
    assert outcome(ref_compare_runs, one, empty, JobClass.SHORT) == no_jobs
    no_pairs = ("ConfigurationError", "runs share no job ids; cannot pair jobs")
    assert outcome(compare_runs, one, other, JobClass.SHORT) == no_pairs
    assert outcome(ref_compare_runs, one, other, JobClass.SHORT) == no_pairs
    bad_p = ("ConfigurationError", "percentile must be in [0, 100], got 101")
    assert outcome(normalized_percentile, one, one, None, 101) == bad_p
    assert outcome(ref_normalized_percentile, one, one, None, 101) == bad_p
