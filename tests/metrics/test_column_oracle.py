"""The column-based metrics return exactly what the row-based ones did.

``RunResult`` keeps its job records and utilization samples as NumPy
columns, and every metric folds the arrays.  The oracle below is the
row-based code the columns replaced: per-class ids and runtimes read off
a list of ``JobRecord``s, Python ``sorted``, and a dict of baseline
runtimes by id.  It reads the records a result was built from, never the
result itself.  On random results, with tied runtimes (``0.0`` beside
``-0.0``), one-job classes, repeated ids, candidate ids missing from the
baseline and disjoint ids, both must agree bit for bit (compared by
``repr``) and raise the same errors.  Every number returned must be a
built-in ``float`` or ``int``: a NumPy scalar prints as
``np.float64(0.62)`` and would change figure text.
"""

from __future__ import annotations

from typing import Sequence

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster.job import JobClass
from repro.cluster.records import JobRecord, RunResult, UtilizationSample
from repro.core.errors import ConfigurationError
from repro.metrics.comparison import (
    Comparison,
    average_runtime_ratio,
    compare_runs,
    fraction_improved,
    normalized_percentile,
    percentile_ratios,
)
from repro.metrics.percentiles import percentile_of_sorted


# -- oracle: the row-based metrics, as they were --------------------------------
def oracle_records(rows: Sequence[JobRecord], job_class):
    if job_class is None:
        return list(rows)
    return [j for j in rows if j.true_class is job_class]


def oracle_runtimes(rows, job_class):
    return [j.runtime for j in oracle_records(rows, job_class)]


def oracle_median_utilization(samples: Sequence[UtilizationSample]):
    if not samples:
        return 0.0
    values = sorted(s.utilization for s in samples)
    n = len(values)
    mid = n // 2
    if n % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


def _class_jobs(rows, job_class):
    records = oracle_records(rows, job_class)
    return [r.job_id for r in records], [r.runtime for r in records]


def _both(numerator, denominator, job_class):
    num = _class_jobs(numerator, job_class)
    den = _class_jobs(denominator, job_class)
    if not num[1] or not den[1]:
        raise ConfigurationError(f"no jobs of class {job_class} in one of the runs")
    return num, den


def _percentile_ratio(num_sorted, den_sorted, p):
    return percentile_of_sorted(num_sorted, p) / percentile_of_sorted(den_sorted, p)


def _mean_ratio(num, den):
    return (sum(num) / len(num)) / (sum(den) / len(den))


def _fraction_improved(cand, base, tolerance):
    base_by_id = dict(zip(*base))
    slack = 1.0 + tolerance
    improved = 0
    matched = 0
    for job_id, runtime in zip(*cand):
        base_runtime = base_by_id.get(job_id)
        if base_runtime is None:
            continue
        matched += 1
        if runtime <= base_runtime * slack:
            improved += 1
    if matched == 0:
        raise ConfigurationError("runs share no job ids; cannot pair jobs")
    return improved / matched


def oracle_percentile_ratios(numerator, denominator, job_class, ps):
    (_, num), (_, den) = _both(numerator, denominator, job_class)
    num.sort()
    den.sort()
    return tuple(_percentile_ratio(num, den, p) for p in ps)


def oracle_normalized_percentile(numerator, denominator, job_class, p):
    return oracle_percentile_ratios(numerator, denominator, job_class, (p,))[0]


def oracle_average_runtime_ratio(numerator, denominator, job_class):
    (_, num), (_, den) = _both(numerator, denominator, job_class)
    return _mean_ratio(num, den)


def oracle_fraction_improved(candidate, baseline, job_class, tolerance=1e-9):
    cand, base = _both(candidate, baseline, job_class)
    return _fraction_improved(cand, base, tolerance)


def oracle_compare_runs(candidate, baseline, job_class):
    cand, base = _both(candidate, baseline, job_class)
    cand_sorted = sorted(cand[1])
    base_sorted = sorted(base[1])
    return Comparison(
        job_class=job_class,
        p50_ratio=_percentile_ratio(cand_sorted, base_sorted, 50.0),
        p90_ratio=_percentile_ratio(cand_sorted, base_sorted, 90.0),
        avg_ratio=_mean_ratio(cand[1], base[1]),
        fraction_improved=_fraction_improved(cand, base, 1e-9),
    )


# -- random results ---------------------------------------------------------------
#: Runtimes drawn often, so ties within and across runs are common.
TIED = (0.5, 1.0, 2.5, 7.0)
#: (submit, completion) pairs: the first two give runtimes 0.0 and -0.0,
#: which compare equal, so a sort must keep their record order.
SPANS = ((0.0, 0.0), (0.0, -0.0), (1.0, 1.5), (3.0, 3.5), (10.0, 17.0))

counts = st.integers(0, 1_000)
floats = st.floats(-1e6, 1e6)
classes = st.sampled_from([JobClass.SHORT, JobClass.LONG])
spans = st.one_of(
    st.sampled_from(SPANS),
    st.tuples(
        st.floats(0.0, 1_000.0),
        st.one_of(st.sampled_from(TIED), st.floats(0.0, 10_000.0)),
    ).map(lambda t: (t[0], t[0] + t[1])),
)


@st.composite
def job_rows(draw):
    """A record whose id comes from a small pool shared by every run, so
    ids repeat within a run and overlap partly across runs."""
    submit, completion = draw(spans)
    return JobRecord(
        draw(st.integers(0, 24)), submit, completion, draw(counts),
        draw(floats), draw(floats), draw(floats), draw(classes), draw(classes),
        draw(counts), draw(counts),
    )


@st.composite
def samples(draw):
    total = draw(st.integers(1, 64))
    return UtilizationSample(
        draw(st.floats(0.0, 1e5)), draw(st.integers(0, total)), total
    )


@st.composite
def runs(draw):
    """(records, samples, the result built from them)."""
    rows = draw(st.lists(job_rows(), max_size=40))
    taken = draw(st.lists(samples(), max_size=7))
    return rows, taken, RunResult("x", 4, tuple(rows), tuple(taken))


def outcome(fn, *args):
    """The value, or the error's type and message."""
    try:
        return fn(*args)
    except (ConfigurationError, ZeroDivisionError) as exc:
        return (type(exc).__name__, str(exc))


def numbers(value):
    """The numbers in a metric's outcome (none in an error's)."""
    if isinstance(value, Comparison):
        return [
            value.p50_ratio, value.p90_ratio, value.avg_ratio,
            value.fraction_improved,
        ]
    if isinstance(value, tuple):
        return [] if isinstance(value[0], str) else list(value)
    return [value]


def assert_same(new, ref):
    """Equal bit for bit, built-in floats only."""
    assert repr(new) == repr(ref)
    assert all(type(x) is float for x in numbers(new)), numbers(new)


job_classes = st.sampled_from([JobClass.SHORT, JobClass.LONG, None])
percentiles = st.sampled_from([0.0, 25.0, 50.0, 90.0, 99.5, 100.0])


@settings(max_examples=300, deadline=None)
@given(runs(), runs(), job_classes)
def test_compare_runs_matches_the_oracle(candidate, baseline, job_class):
    (cand_rows, _, cand), (base_rows, _, base) = candidate, baseline
    assert_same(
        outcome(compare_runs, cand, base, job_class),
        outcome(oracle_compare_runs, cand_rows, base_rows, job_class),
    )


@settings(max_examples=300, deadline=None)
@given(
    runs(), runs(), job_classes, percentiles,
    st.lists(percentiles, min_size=1, max_size=3).map(tuple),
    st.sampled_from([0.0, 1e-9, 0.5]),
)
def test_single_metrics_match_the_oracle(
    candidate, baseline, job_class, p, ps, tolerance
):
    (cand_rows, _, cand), (base_rows, _, base) = candidate, baseline
    for new, ref, args in (
        (normalized_percentile, oracle_normalized_percentile, (job_class, p)),
        (percentile_ratios, oracle_percentile_ratios, (job_class, ps)),
        (average_runtime_ratio, oracle_average_runtime_ratio, (job_class,)),
        (fraction_improved, oracle_fraction_improved, (job_class, tolerance)),
    ):
        assert_same(
            outcome(new, cand, base, *args), outcome(ref, cand_rows, base_rows, *args)
        )


@settings(max_examples=300, deadline=None)
@given(runs(), job_classes)
def test_record_views_match_the_oracle(run, job_class):
    rows, taken, result = run
    runtimes = result.runtimes(job_class)
    assert repr(runtimes) == repr(oracle_runtimes(rows, job_class))
    assert all(type(x) is float for x in runtimes)
    records = result.records(job_class)
    expected = oracle_records(rows, job_class)
    assert repr(records) == repr(expected)
    for new, old in zip(records, expected):
        assert type(new) is JobRecord
        assert list(map(type, new)) == list(map(type, old))
    assert repr(result.jobs) == repr(tuple(rows))
    assert repr(result.utilization) == repr(tuple(taken))
    median = result.median_utilization()
    assert repr(median) == repr(oracle_median_utilization(taken))
    assert type(median) is float


# -- the cases the random pairs must not miss, pinned ---------------------------------
def record(job_id, submit, completion, job_class=JobClass.SHORT):
    return JobRecord(
        job_id, submit, completion, 1, 1.0, 1.0, 1.0, job_class, job_class, 0
    )


def run_of(*rows):
    return RunResult("x", 4, rows, ())


def test_disjoint_ids_raise():
    cand = run_of(record(0, 0.0, 1.0), record(1, 0.0, 2.0))
    base = run_of(record(2, 0.0, 1.0), record(3, 0.0, 2.0))
    with pytest.raises(ConfigurationError, match="runs share no job ids"):
        compare_runs(cand, base, JobClass.SHORT)
    with pytest.raises(ConfigurationError, match="runs share no job ids"):
        fraction_improved(cand, base, None)


def test_ids_missing_from_the_baseline_are_skipped_and_the_last_id_wins():
    cand = run_of(record(0, 0.0, 1.0), record(1, 0.0, 5.0), record(9, 0.0, 1.0))
    base = run_of(record(1, 0.0, 9.0), record(0, 0.0, 3.0), record(1, 0.0, 2.0))
    # job 0 improves (1 <= 3); job 1 pairs with the later baseline record
    # (5 > 2); job 9 has no baseline record.
    assert fraction_improved(cand, base, None) == 0.5
    assert oracle_fraction_improved(
        [record(0, 0.0, 1.0), record(1, 0.0, 5.0), record(9, 0.0, 1.0)],
        [record(1, 0.0, 9.0), record(0, 0.0, 3.0), record(1, 0.0, 2.0)],
        None,
    ) == 0.5


def test_one_job_classes_and_signed_zero_ties():
    cand = run_of(record(0, 0.0, -0.0), record(1, 0.0, 4.0, JobClass.LONG))
    base = run_of(record(0, 0.0, 0.0), record(1, 0.0, 2.0, JobClass.LONG))
    long = compare_runs(cand, base, JobClass.LONG)
    assert (long.p50_ratio, long.p90_ratio, long.avg_ratio) == (2.0, 2.0, 2.0)
    assert long.fraction_improved == 0.0
    assert repr(cand.runtimes()) == "[-0.0, 4.0]"
    with pytest.raises(ZeroDivisionError):
        compare_runs(cand, base, JobClass.SHORT)


def test_sorts_keep_signed_zeros_in_record_order():
    # Runtimes 0.0 and -0.0 compare equal, so which one a percentile
    # lands on depends on the sort keeping their record order.
    signs = [0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0] * 5
    cand_rows = [record(i, 0.0, s) for i, s in enumerate(signs)]
    cand_rows.append(record(len(signs), 0.0, 1.0))
    base_rows = [record(r.job_id, 0.0, 2.0) for r in cand_rows]
    cand, base = run_of(*cand_rows), run_of(*base_rows)
    ps = tuple(float(p) for p in range(0, 101, 5))
    assert repr(percentile_ratios(cand, base, None, ps)) == repr(
        oracle_percentile_ratios(cand_rows, base_rows, None, ps)
    )
    assert repr(compare_runs(cand, base, None)) == repr(
        oracle_compare_runs(cand_rows, base_rows, None)
    )
