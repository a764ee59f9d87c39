"""Cross-module integration tests: paper-level claims at small scale."""

import pytest

from repro import (
    Cluster,
    ClusterEngine,
    EngineConfig,
    HawkScheduler,
    JobClass,
    SparrowScheduler,
    WorkStealing,
    compare_runs,
    google_like_trace,
    percentile,
)
from repro.experiments import RunSpec, execute
from repro.workloads import GOOGLE_CUTOFF_S
from repro.workloads.google import GoogleTraceConfig
from repro.workloads.motivation import MotivationConfig, motivation_trace


@pytest.fixture(scope="module")
def small_google():
    return google_like_trace(GoogleTraceConfig(n_jobs=150), seed=1)


@pytest.fixture(scope="module")
def high_load_runs(small_google):
    """Hawk and Sparrow at an over-committed cluster size."""
    n = max(3, int(round(small_google.nodes_for_full_utilization() / 1.0)))
    hawk = execute(
        RunSpec(scheduler="hawk", n_workers=n, cutoff=GOOGLE_CUTOFF_S), small_google
    )
    sparrow = execute(
        RunSpec(scheduler="sparrow", n_workers=n, cutoff=GOOGLE_CUTOFF_S),
        small_google,
    )
    return hawk, sparrow


def test_hawk_improves_short_jobs_at_high_load(high_load_runs):
    hawk, sparrow = high_load_runs
    comp = compare_runs(hawk, sparrow, JobClass.SHORT)
    assert comp.p50_ratio < 1.0
    assert comp.fraction_improved > 0.5


def test_hawk_keeps_long_jobs_competitive(high_load_runs):
    hawk, sparrow = high_load_runs
    comp = compare_runs(hawk, sparrow, JobClass.LONG)
    assert comp.p50_ratio < 1.6


def test_hawk_steals_under_load(high_load_runs):
    hawk, _ = high_load_runs
    assert hawk.stealing.entries_stolen > 0


def test_motivation_scenario_reproduces_figure1_queueing():
    """Section 2.3: under Sparrow most short jobs run far beyond 100 s."""
    cfg = MotivationConfig().scaled(0.02)
    trace = motivation_trace(cfg, seed=0)
    engine = ClusterEngine(
        Cluster(cfg.n_servers),
        SparrowScheduler(),
        EngineConfig(cutoff=cfg.cutoff, seed=0),
    )
    res = engine.run(trace)
    p50 = percentile(res.runtimes(JobClass.SHORT), 50)
    assert p50 > 10 * cfg.short_duration  # massive head-of-line blocking


def test_motivation_scenario_hawk_rescues_shorts():
    cfg = MotivationConfig().scaled(0.02)
    trace = motivation_trace(cfg, seed=0)
    engine = ClusterEngine(
        Cluster(cfg.n_servers, short_partition_fraction=0.17),
        HawkScheduler(),
        EngineConfig(cutoff=cfg.cutoff, seed=0),
        stealing=WorkStealing(),
    )
    res = engine.run(trace)
    p50 = percentile(res.runtimes(JobClass.SHORT), 50)
    assert p50 < 10 * cfg.short_duration


def test_low_load_hawk_and_sparrow_converge(small_google):
    """At a mostly idle cluster any scheduler does well (Section 4.2)."""
    n = int(round(small_google.nodes_for_full_utilization() / 0.25))
    hawk = execute(
        RunSpec(scheduler="hawk", n_workers=n, cutoff=GOOGLE_CUTOFF_S),
        small_google,
    )
    sparrow = execute(
        RunSpec(scheduler="sparrow", n_workers=n, cutoff=GOOGLE_CUTOFF_S),
        small_google,
    )
    comp = compare_runs(hawk, sparrow, JobClass.SHORT)
    assert 0.5 <= comp.p50_ratio <= 1.2


def test_simulator_and_prototype_agree_on_direction():
    """The paper's Figure 16 claim in miniature: both the simulator and
    the threaded prototype should show Hawk at least matching Sparrow for
    short jobs under load."""
    from repro.runtime import PrototypeCluster
    from repro.workloads.scaling import (
        scale_trace_for_prototype,
        with_interarrival,
    )

    base = google_like_trace(GoogleTraceConfig(n_jobs=40), seed=2)
    scaled = scale_trace_for_prototype(
        base, cluster_size=20, cutoff=GOOGLE_CUTOFF_S,
        target_mean_task_runtime=0.02,
    )
    gap = scaled.trace.total_task_seconds / (len(scaled.trace) * 20)
    trace = with_interarrival(scaled.trace, gap, seed=2)

    ratios = {}
    for system in ("sim", "proto"):
        runs = {}
        for scheduler in ("hawk", "sparrow"):
            # one spec for both systems, carrying the original classes
            spec = RunSpec(
                scheduler=scheduler, n_workers=20, cutoff=scaled.cutoff,
                estimate=scaled.carried_estimate,
                estimate_tag="carried-classes",
            )
            if system == "sim":
                runs[scheduler] = execute(spec, trace)
            else:
                runs[scheduler] = PrototypeCluster(spec, timeout=60.0).run(trace)
        short_hawk = [
            r.runtime for r in runs["hawk"].jobs
            if r.scheduled_class is JobClass.SHORT
        ]
        short_sparrow = [
            r.runtime for r in runs["sparrow"].jobs
            if r.scheduled_class is JobClass.SHORT
        ]
        ratios[system] = percentile(short_hawk, 90) / percentile(short_sparrow, 90)
    # direction agreement: neither system shows Hawk badly losing
    assert ratios["sim"] < 1.3
    assert ratios["proto"] < 1.3
