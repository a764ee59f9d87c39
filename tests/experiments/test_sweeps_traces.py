"""Tests for the sweep helpers and the workloads drivers name by scale."""

import pytest

from repro.cluster.job import JobClass
from repro.core.errors import ConfigurationError
from repro.experiments.config import RunSpec
from repro.experiments.sweeps import (
    POINT_METRICS,
    ReplicatedPoint,
    extra_metrics,
    sweep,
)
from repro.metrics.comparison import normalized_percentile
from repro.metrics.stats import SummaryStats, summarize
from repro.workloads.kmeans import ALL_KMEANS_WORKLOADS
from repro.workloads.registry import at_scale
from repro.workloads.replication import (
    assert_independent,
    replica_seeds,
    replicate_trace,
)
from repro.workloads.spec import Trace
from tests.conftest import TEST_CUTOFF, long_job, short_job


@pytest.fixture(scope="module")
def small_trace():
    jobs = [long_job(0, 0.0, 4), long_job(1, 1.0, 4)]
    jobs += [short_job(10 + i, float(i)) for i in range(8)]
    return Trace(jobs, name="sweep-small")


HAWK = RunSpec(
    scheduler="hawk",
    n_workers=1,
    cutoff=TEST_CUTOFF,
    short_partition_fraction=0.25,
)
SPARROW = RunSpec(scheduler="sparrow", n_workers=1, cutoff=TEST_CUTOFF)


def test_compare_at_size_populates_all_ratios(small_trace):
    (point,) = sweep(small_trace, (8,), HAWK, SPARROW)
    assert point.n_workers == 8
    utilization, *ratios = point.cells(*POINT_METRICS)
    assert all(ratio > 0 for ratio in ratios)
    assert 0.0 <= utilization <= 1.0


def test_sweep_returns_one_point_per_size(small_trace):
    points = sweep(small_trace, (6, 8, 12), HAWK, SPARROW)
    assert [p.n_workers for p in points] == [6, 8, 12]


def test_extra_metrics_bounded(small_trace):
    (point,) = sweep(small_trace, (8,), HAWK, SPARROW)
    frac, avg = extra_metrics(point, JobClass.SHORT)
    assert 0.0 <= frac <= 1.0
    assert avg > 0


def _fresh_trace(seed: int) -> Trace:
    """A tiny factory whose draws differ per seed (job ids carry it)."""
    jobs = [long_job(0, 0.0, 4), long_job(1, 1.0, 4)]
    jobs += [short_job(10 + seed * 100 + i, float(i)) for i in range(8)]
    return Trace(jobs, name=f"fresh-{seed}")


def test_sweep_replicated_returns_matched_aggregates(small_trace):
    points = sweep(
        small_trace, (8,), HAWK, SPARROW, n_seeds=3, trace_factory=_fresh_trace
    )
    assert len(points) == 1
    point = points[0]
    assert isinstance(point, ReplicatedPoint)
    assert point.n_seeds == 3
    assert point.seeds == replica_seeds(HAWK.seed, 3)
    # each replica carries a full candidate/baseline pair of runs
    for replica in point.replicas:
        assert replica.candidate != replica.baseline
        assert len(replica.candidate.jobs) == len(replica.baseline.jobs)
    stats = point.cell("short_p50_ratio")
    assert isinstance(stats, SummaryStats)
    assert stats.n == 3
    assert stats.ci_lo <= stats.mean <= stats.ci_hi


def test_single_seed_sweep_is_degenerate_replication(small_trace):
    """n_seeds=1 carries the historical scalar values bit-for-bit."""
    point = sweep(small_trace, (8,), HAWK, SPARROW)[0]
    assert point.n_seeds == 1
    replica = point.replicas[0]
    assert point.cells(*POINT_METRICS) == tuple(
        getattr(replica, metric) for metric in POINT_METRICS
    )
    assert isinstance(point.cell("short_p50_ratio"), float)
    stats = summarize([r.long_p90_ratio for r in point.replicas])
    assert stats.ci_lo == stats.ci_hi == replica.long_p90_ratio


def test_extra_metrics_aggregates_over_replicas(small_trace):
    single = sweep(small_trace, (8,), HAWK, SPARROW)[0]
    replicated = sweep(
        small_trace, (8,), HAWK, SPARROW, n_seeds=2, trace_factory=_fresh_trace
    )[0]
    frac_1, avg_1 = extra_metrics(single, JobClass.SHORT)
    frac_n, avg_n = extra_metrics(replicated, JobClass.SHORT)
    # replica 0 of the replicated point is the single-seed run
    assert extra_metrics(replicated.replicas[0], JobClass.SHORT) == (
        frac_1,
        avg_1,
    )
    assert 0.0 <= frac_n <= 1.0 and avg_n > 0


def test_replicated_cell_summarizes_matched_replica_ratios(small_trace):
    point = sweep(
        small_trace, (8,), HAWK, SPARROW, n_seeds=2, trace_factory=_fresh_trace
    )[0]
    cell = point.cell("short_p90_ratio")
    ratios = [r.short_p90_ratio for r in point.replicas]
    # each replica's ratio is its own matched candidate/baseline pair
    assert ratios == [
        normalized_percentile(r.candidate, r.baseline, JobClass.SHORT, 90)
        for r in point.replicas
    ]
    assert cell == summarize(ratios, null=1.0)
    assert cell.n == 2 and cell.p_value is not None
    # utilization is a magnitude, not a ratio: no parity test applies
    assert point.cell("baseline_median_utilization").p_value is None


def test_trace_factories_draw_independent_traces():
    factory = at_scale("google", "quick")
    draws = replicate_trace(factory, 0, 3)
    assert_independent(draws)
    # shared per-process cache
    assert draws[0] is at_scale("google", "quick").trace(0)
    kfactory = at_scale(ALL_KMEANS_WORKLOADS[0].name, "quick")
    assert_independent(replicate_trace(kfactory, 0, 2))


def test_assert_independent_rejects_seed_blind_factory(small_trace):
    with pytest.raises(ConfigurationError):
        assert_independent(replicate_trace(lambda seed: small_trace, 0, 2))


def test_google_trace_cached_per_scale_and_seed():
    a = at_scale("google", "quick").trace(0)
    b = at_scale("google", "quick").trace(0)
    assert a is b
    c = at_scale("google", "quick").trace(1)
    assert c is not a


def test_kmeans_trace_cached():
    name = ALL_KMEANS_WORKLOADS[0].name
    a = at_scale(name, "quick").trace(0)
    assert at_scale(name, "quick").trace(0) is a


def test_google_constants():
    google = at_scale("google", "full")
    assert google.cutoff == 1129.0
    assert google.short_partition_fraction == 0.17
    assert google.params["n_jobs"] == 1200
    assert at_scale("google", "quick").params["n_jobs"] == 260


def test_full_scale_traces_are_bigger():
    assert len(at_scale("google", "full").trace(0)) > len(
        at_scale("google", "quick").trace(0)
    )
