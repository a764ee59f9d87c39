"""Tests for estimation models."""

import pytest

from repro.core.errors import ConfigurationError
from repro.schedulers import ExactEstimation, UniformMisestimation
from repro.workloads.spec import JobSpec


def spec(job_id=1, durations=(10.0, 30.0)):
    return JobSpec(job_id, 0.0, durations)


def test_exact_returns_mean():
    assert ExactEstimation()(spec()) == 20.0


def test_misestimation_within_range():
    estimator = UniformMisestimation(0.5, 1.5, seed=0)
    for job_id in range(100):
        estimate = estimator(spec(job_id=job_id))
        assert 10.0 <= estimate <= 30.0


def test_misestimation_deterministic_per_job():
    a = UniformMisestimation(0.1, 1.9, seed=7)
    b = UniformMisestimation(0.1, 1.9, seed=7)
    for job_id in range(10):
        assert a(spec(job_id=job_id)) == b(spec(job_id=job_id))


def test_misestimation_varies_across_jobs():
    estimator = UniformMisestimation(0.1, 1.9, seed=0)
    estimates = {estimator(spec(job_id=i)) for i in range(20)}
    assert len(estimates) > 10


def test_misestimation_varies_across_seeds():
    a = UniformMisestimation(0.1, 1.9, seed=1)(spec())
    b = UniformMisestimation(0.1, 1.9, seed=2)(spec())
    assert a != b


def test_invalid_range_rejected():
    with pytest.raises(ConfigurationError):
        UniformMisestimation(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        UniformMisestimation(1.5, 0.5)


def test_degenerate_range_is_constant_factor():
    estimator = UniformMisestimation(2.0, 2.0, seed=0)
    assert estimator(spec()) == pytest.approx(40.0)


def test_mean_preserving_on_average():
    """Symmetric ranges around 1 should roughly preserve the mean."""
    estimator = UniformMisestimation(0.5, 1.5, seed=0)
    estimates = [estimator(spec(job_id=i)) for i in range(2000)]
    assert sum(estimates) / len(estimates) == pytest.approx(20.0, rel=0.05)
