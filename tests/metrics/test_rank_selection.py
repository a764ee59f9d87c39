"""Percentiles taken by rank selection equal those of a stable sort.

:func:`sorted_at` finds ranks of a float column's stable ascending sort
with ``np.partition``, and :func:`column_percentiles` interpolates
between them.  Both must return what a stable sort and
:func:`percentile_of_sorted` return, bit for bit (compared by ``repr``),
as built-in floats.  ``np.partition`` is not stable, so ``0.0`` and
``-0.0`` ties are the case to watch: the stable sort keeps them in
record order.

The fold pairs two runs' jobs by position when both list the same ids
once each in increasing order; the pinned pairing cases below cover that
path and the id-matching one beside it.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cluster.job import JobClass
from repro.cluster.records import JobRecord, RunResult
from repro.core.errors import ConfigurationError
from repro.metrics.comparison import compare_runs, fraction_improved
from repro.metrics.percentiles import (
    column_percentiles,
    percentile_of_sorted,
    sorted_at,
)

#: Values drawn often, so that ties (signed zeros above all) are common.
TIED = (0.0, -0.0, 1.0, 2.5, -3.0)

values = st.one_of(st.sampled_from(TIED), st.floats(-1e6, 1e6))
columns = st.lists(values, min_size=1, max_size=60).map(np.array)
ps = st.one_of(st.sampled_from([0.0, 50.0, 90.0, 100.0]), st.floats(0.0, 100.0))


def stable_sorted(column) -> list[float]:
    return np.sort(column, kind="stable").tolist()


@settings(max_examples=400, deadline=None)
@given(columns, st.data())
def test_sorted_at_matches_a_stable_sort(column, data):
    ranks = data.draw(st.lists(st.integers(0, column.size - 1), max_size=6))
    picked = sorted_at(column, ranks)
    expected = stable_sorted(column)
    assert repr(picked) == repr([expected[r] for r in ranks])
    assert all(type(x) is float for x in picked)


@settings(max_examples=400, deadline=None)
@given(columns, st.lists(ps, max_size=4))
def test_column_percentiles_match_percentile_of_sorted(column, ps):
    got = column_percentiles(column, ps)
    expected = stable_sorted(column)
    assert repr(got) == repr(tuple(percentile_of_sorted(expected, p) for p in ps))
    assert all(type(x) is float for x in got)


def test_signed_zero_ties_keep_record_order():
    # A partition leaves some of these zeros out of record order.
    signs = [0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0] * 5
    column = np.array([-1.0, *signs, 1.0])
    expected = stable_sorted(column)
    for ranks in ([20, 21, 36, 37], [37, 20, 36, 21, 20]):
        assert repr(sorted_at(column, ranks)) == repr([expected[r] for r in ranks])
    ps = (0.0, 50.0, 90.0, 100.0)
    assert repr(column_percentiles(column, ps)) == repr(
        tuple(percentile_of_sorted(expected, p) for p in ps)
    )


@pytest.mark.parametrize(
    "column, p, message",
    [
        ([], 50.0, "cannot take a percentile of no values"),
        ([1.0], -1.0, r"percentile must be in \[0, 100\], got -1.0"),
        ([1.0], 100.5, r"percentile must be in \[0, 100\], got 100.5"),
    ],
)
def test_both_paths_raise_the_same_errors(column, p, message):
    with pytest.raises(ConfigurationError, match=message):
        percentile_of_sorted(column, p)
    with pytest.raises(ConfigurationError, match=message):
        column_percentiles(np.array(column, dtype=np.float64), [p])


# -- pairing jobs: by position, or by id ----------------------------------------------
def run_of(jobs):
    """A run of short jobs, one per ``(job id, runtime)``."""
    rows = tuple(
        JobRecord(i, 0.0, t, 1, 1.0, 1.0, 1.0, JobClass.SHORT, JobClass.SHORT, 0)
        for i, t in jobs
    )
    return RunResult("x", 4, rows, ())


def by_id(cand, base):
    """The fraction improved, pairing each candidate job with the last
    baseline job of its id."""
    base_runtime = dict(base)
    paired = [(t, base_runtime[i]) for i, t in cand if i in base_runtime]
    return sum(t <= b * (1.0 + 1e-9) for t, b in paired) / len(paired)


@pytest.mark.parametrize(
    "cand, base",
    [
        # the same sorted ids: paired by position
        ([(0, 1.0), (1, 5.0), (2, 2.0)], [(0, 3.0), (1, 2.0), (2, 2.0)]),
        # the same ids, unsorted
        ([(2, 1.0), (0, 5.0), (1, 2.0)], [(2, 3.0), (0, 2.0), (1, 2.0)]),
        # repeated ids, listed alike in both runs: the last baseline job wins
        ([(1, 5.0), (1, 1.0)], [(1, 9.0), (1, 2.0)]),
        ([(0, 1.0), (1, 5.0), (1, 1.0)], [(0, 1.0), (1, 9.0), (1, 2.0)]),
        # candidate ids missing from the baseline are skipped
        ([(0, 1.0), (1, 5.0), (9, 1.0)], [(1, 9.0), (0, 3.0), (1, 2.0)]),
        # the same ids in increasing order, but one run lists one more
        ([(0, 1.0), (1, 5.0)], [(0, 3.0), (1, 2.0), (2, 2.0)]),
    ],
)
def test_fraction_improved_pairs_like_a_dict_of_ids(cand, base):
    expected = by_id(cand, base)
    cand_run, base_run = run_of(cand), run_of(base)
    for got in (
        fraction_improved(cand_run, base_run, None),
        compare_runs(cand_run, base_run, None).fraction_improved,
    ):
        assert repr(got) == repr(expected)


def test_disjoint_ids_raise():
    with pytest.raises(ConfigurationError, match="runs share no job ids"):
        fraction_improved(run_of([(0, 1.0), (1, 2.0)]), run_of([(2, 1.0)]), None)


runtimes = st.sampled_from((0.0, 1.0, 2.5, 4.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=12), st.booleans(), st.data())
def test_runs_listing_the_same_ids_pair_like_a_dict(ids, sort_them, data):
    if sort_them:
        ids = sorted(set(ids))
    cand = [(i, data.draw(runtimes)) for i in ids]
    base = [(i, data.draw(runtimes)) for i in ids]
    assert repr(fraction_improved(run_of(cand), run_of(base), None)) == repr(
        by_id(cand, base)
    )
