"""Tests for replica statistics (means, t-intervals, matched pairing)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.metrics.stats import (
    SummaryStats,
    mean,
    paired_values,
    stdev,
    summarize,
    t_cdf,
    t_confidence_interval,
    t_ppf,
)

#: Two-sided 97.5% t quantiles from standard tables.
T_TABLE_975 = {1: 12.7062, 2: 4.30265, 4: 2.77645, 10: 2.22814, 30: 2.04227}


def test_mean_and_stdev_basics():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert stdev([1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert stdev([5.0]) == 0.0


def test_mean_of_single_value_is_bit_identical():
    for x in (0.1, 1.0 / 3.0, 123.456e-7, 9876.5432):
        assert mean([x]) == x  # exact: sum([x]) / 1


@pytest.mark.parametrize("dof,expected", sorted(T_TABLE_975.items()))
def test_t_ppf_matches_standard_tables(dof, expected):
    assert t_ppf(0.975, dof) == pytest.approx(expected, abs=5e-4)


def test_t_cdf_symmetry_and_ppf_round_trip():
    for dof in (1, 3, 7):
        assert t_cdf(0.0, dof) == 0.5
        for t in (0.5, 1.7, 4.2):
            assert t_cdf(t, dof) + t_cdf(-t, dof) == pytest.approx(1.0)
            assert t_ppf(t_cdf(t, dof), dof) == pytest.approx(t, abs=1e-6)


def test_confidence_interval_known_case():
    # mean 2, stdev 1, n=3: half-width = t(0.975, 2) / sqrt(3)
    lo, hi = t_confidence_interval([1.0, 2.0, 3.0])
    half = T_TABLE_975[2] / (3**0.5)
    assert lo == pytest.approx(2.0 - half, abs=1e-4)
    assert hi == pytest.approx(2.0 + half, abs=1e-4)


def test_confidence_interval_degenerates_for_single_sample():
    assert t_confidence_interval([0.7]) == (0.7, 0.7)


def test_higher_confidence_widens_interval():
    values = [1.0, 1.5, 2.5, 3.0, 2.0]
    lo90, hi90 = t_confidence_interval(values, 0.90)
    lo99, hi99 = t_confidence_interval(values, 0.99)
    assert lo99 < lo90 < hi90 < hi99


def test_summarize_bundle():
    s = summarize([1.0, 2.0, 3.0])
    assert isinstance(s, SummaryStats)
    assert (s.n, s.mean, s.median) == (3, 2.0, 2.0)
    assert s.ci_lo < s.mean < s.ci_hi
    assert s.ci_half == pytest.approx((s.ci_hi - s.ci_lo) / 2)


def test_paired_values_matches_by_index():
    ratios = paired_values(lambda c, b: c / b, [1.0, 4.0], [2.0, 2.0])
    assert ratios == [0.5, 2.0]


def test_paired_values_rejects_mismatched_replicas():
    with pytest.raises(ConfigurationError):
        paired_values(lambda c, b: c / b, [1.0, 2.0], [1.0])
    with pytest.raises(ConfigurationError):
        paired_values(lambda c, b: c / b, [], [])


def test_paired_values_cancel_between_pair_variance():
    # Candidate is exactly 10% better in every matched pair even though
    # the raw values vary wildly between pairs: pairing must cancel the
    # between-pair variance completely.
    baselines = [10.0, 1000.0, 0.5]
    candidates = [9.0, 900.0, 0.45]
    s = summarize(paired_values(lambda c, b: c / b, candidates, baselines))
    assert s.mean == pytest.approx(0.9)
    assert s.stdev == pytest.approx(0.0, abs=1e-12)


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        mean([])
    with pytest.raises(ConfigurationError):
        stdev([])
    with pytest.raises(ConfigurationError):
        t_confidence_interval([1.0, 2.0], confidence=1.5)
    with pytest.raises(ConfigurationError):
        t_ppf(0.0, 3)
    with pytest.raises(ConfigurationError):
        t_cdf(1.0, 0)
