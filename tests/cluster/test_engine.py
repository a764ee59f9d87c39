"""Integration tests for the run engine: the probe protocol, completion
accounting, utilization sampling and determinism."""

import pytest

from repro.cluster import Cluster, ClusterEngine, EngineConfig, JobClass
from repro.cluster.engine import NETWORK_DELAY_S
from repro.core.errors import ConfigurationError, SimulationError
from repro.runtime.node_monitor import LATENCY
from repro.schedulers import SparrowScheduler
from repro.workloads.spec import JobSpec, Trace
from tests.conftest import TEST_CUTOFF, job, make_engine, short_job


def run_sparrow(trace, n_workers=8, seed=0, **cfg):
    engine = ClusterEngine(
        Cluster(n_workers),
        SparrowScheduler(),
        EngineConfig(cutoff=TEST_CUTOFF, seed=seed, **cfg),
    )
    return engine.run(trace)


def test_single_job_completes(short_only_trace):
    res = run_sparrow(short_only_trace)
    assert len(res.jobs) == len(short_only_trace)
    assert all(r.completion_time > r.submit_time for r in res.jobs)


def test_empty_trace_rejected():
    engine = make_engine("sparrow")
    with pytest.raises(ConfigurationError):
        engine.run([])


def test_single_task_job_runtime_close_to_duration():
    trace = Trace([job(0, 0.0, 10.0)], name="one")
    res = run_sparrow(trace, n_workers=4)
    # duration + probe RTT (2 x 0.5 ms) + probe delivery (0.5 ms)
    assert res.jobs[0].runtime == pytest.approx(10.0, abs=0.01)


def test_parallel_tasks_run_concurrently():
    trace = Trace([job(0, 0.0, *([10.0] * 4))], name="par")
    res = run_sparrow(trace, n_workers=8)
    # 4 tasks on 8 free workers: runtime ~ one task duration, not four.
    assert res.jobs[0].runtime < 11.0


def test_queueing_when_single_worker():
    trace = Trace([job(0, 0.0, 10.0, 10.0, 10.0)], name="q")
    res = run_sparrow(trace, n_workers=1)
    # One worker: tasks serialize, runtime >= 30 s.
    assert res.jobs[0].runtime >= 30.0


def test_fifo_order_on_single_worker():
    trace = Trace([job(0, 0.0, 10.0), job(1, 1.0, 10.0)], name="fifo")
    res = run_sparrow(trace, n_workers=1)
    first = next(r for r in res.jobs if r.job_id == 0)
    second = next(r for r in res.jobs if r.job_id == 1)
    assert first.completion_time < second.completion_time


def test_records_have_true_and_scheduled_classes(tiny_trace):
    res = run_sparrow(tiny_trace)
    classes = {r.job_id: r.true_class for r in res.jobs}
    assert classes[0] is JobClass.LONG
    assert classes[10] is JobClass.SHORT


def test_record_task_seconds_matches_spec(tiny_trace):
    res = run_sparrow(tiny_trace)
    by_id = {s.job_id: s for s in tiny_trace}
    for record in res.jobs:
        assert record.task_seconds == pytest.approx(
            by_id[record.job_id].task_seconds
        )


def test_utilization_samples_taken_every_interval(tiny_trace):
    res = run_sparrow(tiny_trace)
    assert len(res.utilization) >= 2
    times = [s.time for s in res.utilization]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g == pytest.approx(100.0) for g in gaps)


def test_utilization_values_bounded(tiny_trace):
    res = run_sparrow(tiny_trace)
    for sample in res.utilization:
        assert 0.0 <= sample.utilization <= 1.0


def test_busy_cluster_reports_full_utilization():
    # 6 long tasks on 2 workers: the cluster is saturated for a long time.
    trace = Trace([job(0, 0.0, *([1000.0] * 6))], name="sat")
    res = run_sparrow(trace, n_workers=2)
    assert res.max_utilization() == 1.0


def test_events_fired_positive(tiny_trace):
    res = run_sparrow(tiny_trace)
    assert res.events_fired > 0
    assert res.end_time > 0


def test_same_seed_bitwise_identical_results(tiny_trace):
    a = run_sparrow(tiny_trace, seed=5)
    b = run_sparrow(tiny_trace, seed=5)
    assert [r.completion_time for r in a.jobs] == [
        r.completion_time for r in b.jobs
    ]
    assert a.events_fired == b.events_fired


def test_different_seed_changes_placement(tiny_trace):
    a = run_sparrow(tiny_trace, seed=1)
    b = run_sparrow(tiny_trace, seed=2)
    assert [r.completion_time for r in a.jobs] != [
        r.completion_time for r in b.jobs
    ]


def test_max_events_guard_trips():
    trace = Trace([short_job(i, 0.0) for i in range(10)], name="m")
    with pytest.raises(SimulationError):
        run_sparrow(trace, max_events=5)


class _DropsOneJob(SparrowScheduler):
    """Sparrow that never places job 3: a run that can never finish."""

    def on_job_submit(self, job):
        if job.job_id != 3:
            super().on_job_submit(job)


def test_stuck_run_drains_and_reports_instead_of_sampling_forever():
    trace = Trace([short_job(i, 50.0 * i) for i in range(6)], name="stuck")
    engine = ClusterEngine(
        Cluster(8),
        _DropsOneJob(),
        EngineConfig(cutoff=TEST_CUTOFF, max_events=100_000),
    )
    with pytest.raises(SimulationError, match=r"drained .* only 5/6 jobs"):
        engine.run(trace)


def test_all_schedulers_complete_all_jobs(tiny_trace):
    for name in ("sparrow", "hawk", "centralized", "split"):
        engine = make_engine(name)
        res = engine.run(tiny_trace)
        assert len(res.jobs) == len(tiny_trace), name
        assert all(r.completion_time >= r.submit_time for r in res.jobs), name


def test_no_task_runs_twice(tiny_trace):
    """Engine-level invariant: tasks executed == tasks in trace."""
    engine = make_engine("hawk")
    res = engine.run(tiny_trace)
    executed = sum(w.tasks_executed for w in engine.cluster.workers)
    assert executed == sum(s.num_tasks for s in tiny_trace)
    assert res.events_fired == engine.sim.events_fired


def test_workers_idle_after_run(tiny_trace):
    engine = make_engine("hawk")
    engine.run(tiny_trace)
    for worker in engine.cluster.workers:
        assert worker.current_task is None
        assert not worker.queue or all(
            hasattr(e, "frontend") for e in worker.queue
        )


def test_runtimes_filter_by_class(tiny_trace):
    res = run_sparrow(tiny_trace)
    all_rt = res.runtimes()
    short_rt = res.runtimes(JobClass.SHORT)
    long_rt = res.runtimes(JobClass.LONG)
    assert len(all_rt) == len(short_rt) + len(long_rt)
    assert len(long_rt) == 2


def test_median_and_max_utilization_consistent(tiny_trace):
    res = run_sparrow(tiny_trace)
    assert 0.0 <= res.median_utilization() <= res.max_utilization() <= 1.0


def test_engine_cutoff_validation():
    with pytest.raises(ConfigurationError):
        EngineConfig(cutoff=0.0)


def test_message_delay_is_half_millisecond():
    """Section 4.1's 0.5 ms, shared by the simulator and the prototype."""
    assert NETWORK_DELAY_S == 0.0005
    assert LATENCY is NETWORK_DELAY_S


def test_estimate_callable_overrides_mean(tiny_trace):
    engine = make_engine("sparrow", estimate=lambda spec: 1e6)
    res = engine.run(tiny_trace)
    assert all(r.scheduled_class is JobClass.LONG for r in res.jobs)
    assert any(r.true_class is JobClass.SHORT for r in res.jobs)


def test_hawk_same_seed_identical_with_stealing(tiny_trace):
    """Work stealing (parking, wakes, victim sampling) must be fully
    deterministic for a fixed seed — no dependence on object identity."""
    results = []
    for _ in range(2):
        engine = make_engine("hawk", seed=3)
        res = engine.run(tiny_trace)
        results.append(
            (
                [r.completion_time for r in res.jobs],
                res.stealing.entries_stolen,
                res.events_fired,
            )
        )
    assert results[0] == results[1]
