"""Tests for the workload generators: calibration against paper statistics."""

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments import ledger
from repro.workloads import (
    CLOUDERA_C,
    FACEBOOK_2010,
    GOOGLE_CUTOFF_S,
    YAHOO_2011,
    GoogleTraceConfig,
    google_like_trace,
    kmeans_trace,
    motivation_trace,
)
from repro.workloads.analysis import workload_summary
from repro.workloads.google import LONG_TASKS_MAX
from repro.workloads.kmeans import ALL_KMEANS_WORKLOADS, KMeansWorkloadSpec
from repro.workloads.motivation import MotivationConfig
from repro.workloads.registry import (
    WorkloadSpec,
    quick_spec,
    registered_names,
    workload_entry,
)


# -- Google-like ----------------------------------------------------------
def test_google_job_count():
    trace = google_like_trace(GoogleTraceConfig(n_jobs=200))
    assert len(trace) == 200


def test_google_long_fraction_exact():
    trace = google_like_trace(GoogleTraceConfig(n_jobs=300), seed=1)
    summary = workload_summary(trace, GOOGLE_CUTOFF_S)
    assert summary.long_fraction == pytest.approx(0.10, abs=0.005)


def test_google_task_seconds_share_calibrated():
    for seed in (0, 1, 2):
        trace = google_like_trace(GoogleTraceConfig(n_jobs=400), seed=seed)
        summary = workload_summary(trace, GOOGLE_CUTOFF_S)
        assert summary.task_seconds_share == pytest.approx(0.8365, abs=0.02)


def test_google_duration_ratio_calibrated():
    for seed in (0, 1, 2):
        trace = google_like_trace(GoogleTraceConfig(n_jobs=400), seed=seed)
        summary = workload_summary(trace, GOOGLE_CUTOFF_S)
        assert summary.duration_ratio == pytest.approx(7.34, rel=0.15)


def test_google_tasks_share_in_plausible_band():
    trace = google_like_trace(GoogleTraceConfig(n_jobs=600), seed=0)
    summary = workload_summary(trace, GOOGLE_CUTOFF_S)
    assert 0.15 <= summary.tasks_share <= 0.5  # paper: 0.28


def test_google_classes_respect_cutoff_by_construction():
    trace = google_like_trace(GoogleTraceConfig(n_jobs=300), seed=0)
    for job in trace:
        mean = job.mean_task_duration
        assert mean >= GOOGLE_CUTOFF_S or mean < GOOGLE_CUTOFF_S  # total
    longs = trace.long_jobs(GOOGLE_CUTOFF_S)
    assert all(j.mean_task_duration >= GOOGLE_CUTOFF_S for j in longs)


def test_google_task_limits_respected():
    cfg = GoogleTraceConfig(n_jobs=300)
    trace = google_like_trace(cfg, seed=0)
    for job in trace:
        assert job.num_tasks <= LONG_TASKS_MAX


def test_google_within_job_variation():
    cfg = GoogleTraceConfig(n_jobs=100, within_job_cv=0.5)
    trace = google_like_trace(cfg, seed=0)
    varied = [j for j in trace if j.num_tasks > 1]
    assert any(len(set(j.task_durations)) > 1 for j in varied)


def test_google_per_task_mean_matches_drawn_mean():
    """Rescaling guarantees the realized mean equals the drawn one, so
    classification is exact."""
    trace = google_like_trace(GoogleTraceConfig(n_jobs=100), seed=0)
    for job in trace:
        assert min(job.task_durations) > 0


def test_google_deterministic_per_seed():
    a = google_like_trace(GoogleTraceConfig(n_jobs=50), seed=9)
    b = google_like_trace(GoogleTraceConfig(n_jobs=50), seed=9)
    assert [j.task_durations for j in a] == [j.task_durations for j in b]


def test_google_arrivals_increasing():
    trace = google_like_trace(GoogleTraceConfig(n_jobs=100), seed=0)
    times = [j.submit_time for j in trace]
    assert times == sorted(times)


def test_google_config_validation():
    with pytest.raises(ConfigurationError):
        GoogleTraceConfig(n_jobs=5)
    with pytest.raises(ConfigurationError):
        GoogleTraceConfig(long_fraction=0.0)


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_jobs": 10, "long_fraction": 0.04},  # the long class rounds to 0 jobs
        {"n_jobs": 10, "long_fraction": 0.96},  # ... and here the short one
        {"within_job_cv": -0.5},
    ],
    ids=["no-long-jobs", "no-short-jobs", "negative-cv"],
)
def test_google_config_rejects_what_the_generator_cannot_draw(overrides):
    with pytest.raises(ConfigurationError):
        GoogleTraceConfig(**overrides)


# -- k-means traces --------------------------------------------------------
@pytest.mark.parametrize("spec", ALL_KMEANS_WORKLOADS, ids=lambda s: s.name)
def test_kmeans_long_fraction_near_paper(spec):
    trace = kmeans_trace(spec, n_jobs=800, mean_interarrival=10.0, seed=0)
    summary = workload_summary(trace, spec.cutoff)
    assert summary.long_fraction == pytest.approx(
        spec.paper_long_fraction, abs=0.035
    )


@pytest.mark.parametrize("spec", ALL_KMEANS_WORKLOADS, ids=lambda s: s.name)
def test_kmeans_task_seconds_share_near_paper(spec):
    # Exponential job-size tails make single traces noisy; calibration is
    # asserted in expectation over a few seeds.
    shares = []
    for seed in range(3):
        trace = kmeans_trace(spec, n_jobs=800, mean_interarrival=10.0, seed=seed)
        shares.append(workload_summary(trace, spec.cutoff).task_seconds_share)
    mean_share = sum(shares) / len(shares)
    assert mean_share == pytest.approx(spec.paper_task_seconds_share, abs=0.06)


def test_kmeans_all_durations_positive():
    trace = kmeans_trace(CLOUDERA_C, n_jobs=200, mean_interarrival=10.0)
    assert all(d > 0 for j in trace for d in j.task_durations)


def test_kmeans_deterministic():
    a = kmeans_trace(YAHOO_2011, n_jobs=50, mean_interarrival=10.0, seed=4)
    b = kmeans_trace(YAHOO_2011, n_jobs=50, mean_interarrival=10.0, seed=4)
    assert [j.task_durations for j in a] == [j.task_durations for j in b]


def test_kmeans_stratification_represents_small_clusters():
    """Even small traces must include jobs from every cluster."""
    trace = kmeans_trace(FACEBOOK_2010, n_jobs=300, mean_interarrival=10.0)
    # Facebook's rarest cluster (0.21%) has quota < 1 but the remainder
    # assignment still allocates it at least sometimes; check the trace
    # has genuinely large jobs at all.
    assert max(j.task_seconds for j in trace) > 1e5


def test_kmeans_invalid_job_count():
    with pytest.raises(ConfigurationError):
        kmeans_trace(CLOUDERA_C, n_jobs=0, mean_interarrival=10.0)


def test_kmeans_weights_must_sum_to_one():
    from repro.workloads.kmeans import KMeansCluster

    with pytest.raises(ConfigurationError):
        KMeansWorkloadSpec(
            name="bad",
            clusters=(KMeansCluster(0.5, 10.0, 10.0),),
            cutoff=100.0,
            short_partition_fraction=0.1,
            paper_long_fraction=0.1,
            paper_task_seconds_share=0.9,
            paper_total_jobs=100,
        )


def test_kmeans_max_tasks_cap():
    trace = kmeans_trace(
        FACEBOOK_2010, n_jobs=400, mean_interarrival=10.0, max_tasks_per_job=500
    )
    assert max(j.num_tasks for j in trace) <= 500


# -- motivation workload ----------------------------------------------------
def test_motivation_defaults_match_paper():
    cfg = MotivationConfig()
    assert cfg.n_jobs == 1000
    assert cfg.n_servers == 15000
    assert cfg.short_tasks == 100
    assert cfg.long_duration == 20000.0


def test_motivation_class_mix():
    cfg = MotivationConfig().scaled(0.1)
    trace = motivation_trace(cfg)
    longs = trace.long_jobs(cfg.cutoff)
    assert len(longs) == pytest.approx(0.05 * len(trace), abs=2)
    assert all(j.num_tasks == cfg.long_tasks for j in longs)


def test_motivation_scaling_preserves_interarrival_load():
    base = MotivationConfig()
    scaled = base.scaled(0.1)
    assert scaled.n_jobs == 100
    assert scaled.n_servers == 1500
    assert scaled.mean_interarrival == pytest.approx(500.0)


def test_motivation_scale_validation():
    with pytest.raises(ConfigurationError):
        MotivationConfig().scaled(0.0)


def test_motivation_long_jobs_spread_out():
    cfg = MotivationConfig().scaled(0.1)
    trace = motivation_trace(cfg)
    long_positions = [
        i for i, j in enumerate(trace) if j.is_long(cfg.cutoff)
    ]
    # Long jobs should not all cluster at the start or end.
    assert long_positions[0] < len(trace) / 2
    assert long_positions[-1] > len(trace) / 2


# -- pinned output ---------------------------------------------------------
#: ``google-scale10k`` at its full size, seed 0 (the e2e sims' trace).
SCALE10K_DIGEST = "76537845fe4574f219d251e8d823c2926382fe92"


def test_every_built_in_workload_is_pinned():
    built_in = [
        name
        for name in registered_names()
        if workload_entry(name).builder.__module__.startswith("repro.workloads.")
    ]
    _, entries = ledger.load()
    pinned = {key[1] for key in entries if key[0] == "trace"}
    assert sorted(pinned) == sorted(built_in)


def test_google_scale_points_share_one_builder():
    names = ("google", "google-scale10k", "google-scale100k")
    assert len({workload_entry(name).builder for name in names}) == 1


@pytest.mark.parametrize("name", sorted(ledger.workloads()))
def test_quick_traces_match_pinned_digests(name):
    """A generator change that moves one draw, or one last bit of a
    duration, moves a ``trace`` entry of the run ledger."""
    keys = [("trace", name, str(seed)) for seed in ledger.TRACE_SEEDS]
    assert ledger.check(keys) == []


def test_full_scale10k_trace_matches_pinned_digest():
    trace = WorkloadSpec("google-scale10k").trace(0)
    assert len(trace) == 3000
    assert sum(job.num_tasks for job in trace) == 78494
    assert trace.content_digest() == SCALE10K_DIGEST
