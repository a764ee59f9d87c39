"""Tests for the least-waiting-time centralized scheduler."""

import pytest

from repro.cluster import Cluster, ClusterEngine, EngineConfig, Partition
from repro.schedulers import CentralizedScheduler
from repro.workloads.spec import Trace
from tests.conftest import TEST_CUTOFF, job


def build(n_workers=4, partition=Partition.ALL):
    scheduler = CentralizedScheduler(partition=partition)
    engine = ClusterEngine(
        Cluster(n_workers, short_partition_fraction=0.25),
        scheduler,
        EngineConfig(cutoff=TEST_CUTOFF),
    )
    return engine, scheduler


def test_tasks_spread_over_idle_workers():
    engine, scheduler = build(n_workers=4)
    trace = Trace([job(0, 0.0, *([50.0] * 4))], name="t")
    engine.run(trace)
    assert [w.tasks_executed for w in engine.cluster.workers] == [1, 1, 1, 1]


def test_least_loaded_worker_chosen_first():
    engine, scheduler = build(n_workers=2)
    # 3 equal tasks on 2 workers: one worker must take 2.
    trace = Trace([job(0, 0.0, 50.0, 50.0, 50.0)], name="t")
    engine.run(trace)
    counts = sorted(w.tasks_executed for w in engine.cluster.workers)
    assert counts == [1, 2]


def test_waiting_time_accumulates_estimates():
    engine, scheduler = build(n_workers=2)
    trace = Trace([job(0, 0.0, 50.0, 50.0, 50.0)], name="t")
    # Inspect mid-run: after placement, pending sums must equal job work.
    for spec in trace:
        pass
    engine.sim.schedule_at(0.0, lambda: None)
    engine.run(trace)
    # After completion all pending estimates return to ~zero.
    assert all(p == pytest.approx(0.0) for p in scheduler._pending.values())


def test_completion_feedback_frees_worker_view():
    """A worker whose task finished early must become preferred again."""
    engine, scheduler = build(n_workers=2)
    # Job A: two tasks, one short-running and one long-running reality,
    # same estimate.  Job B arrives later: must go to the freed worker.
    trace = Trace(
        [job(0, 0.0, 10.0, 500.0), job(1, 100.0, 10.0)],
        name="t",
    )
    engine.run(trace)
    # Worker that ran the 10 s task should have taken job 1's task too.
    counts = sorted(w.tasks_executed for w in engine.cluster.workers)
    assert counts == [1, 2]


def test_partition_restriction():
    engine, _ = build(n_workers=4, partition=Partition.GENERAL)
    trace = Trace([job(0, 0.0, *([50.0] * 6))], name="t")
    engine.run(trace)
    short_ids = list(engine.cluster.ids(Partition.SHORT_RESERVED))
    assert all(engine.cluster.worker(w).tasks_executed == 0 for w in short_ids)


def test_estimates_drive_placement_not_true_durations():
    """With a wildly wrong estimate, placement quality degrades — the
    scheduler must not peek at true durations."""
    scheduler = CentralizedScheduler()
    engine = ClusterEngine(
        Cluster(2),
        scheduler,
        EngineConfig(cutoff=TEST_CUTOFF),
        estimate=lambda spec: 1.0,  # everything looks tiny
    )
    trace = Trace([job(0, 0.0, 100.0), job(1, 0.5, 100.0)], name="t")
    engine.run(trace)
    # Both jobs estimated at ~1 s: the second job still must pick the
    # *other* worker (pending 0 < pending 1), so both run in parallel.
    counts = sorted(w.tasks_executed for w in engine.cluster.workers)
    assert counts == [1, 1]


def test_snapshot_sorted_by_waiting():
    engine, scheduler = build(n_workers=3)
    snap = scheduler.snapshot()
    assert snap == sorted(snap)
    assert len(snap) == 3


def test_tasks_placed_counter():
    engine, scheduler = build()
    trace = Trace([job(0, 0.0, 10.0, 10.0), job(1, 1.0, 10.0)], name="t")
    engine.run(trace)
    assert scheduler.tasks_placed == 3
    assert scheduler.jobs_scheduled == 2


def test_on_task_finish_ignores_foreign_tasks():
    engine, scheduler = build()
    from repro.cluster.job import Job

    foreign = Job(99, 0.0, (10.0,), 10.0, cutoff=TEST_CUTOFF)
    foreign.tasks[0].worker_id = 0
    scheduler.on_task_finish(foreign.tasks[0])  # must not raise


def test_completion_report_lowers_waiting_time():
    engine, scheduler = build(n_workers=2)
    from repro.cluster.job import Job

    placed = []
    engine.place_tasks = placed.extend
    j = Job(0, 0.0, (50.0, 50.0), 50.0, cutoff=TEST_CUTOFF)
    scheduler.on_job_submit(j)
    worker_id, task = placed[0]
    assert scheduler.waiting_time(worker_id) == pytest.approx(50.0)
    task.worker_id = worker_id
    scheduler.on_task_finish(task)
    assert scheduler.waiting_time(worker_id) == pytest.approx(0.0)


def test_on_task_finish_ignores_reports_outside_partition():
    engine, scheduler = build(n_workers=4, partition=Partition.GENERAL)
    from repro.cluster.job import Job

    before = scheduler.snapshot()
    short_id = engine.cluster.ids(Partition.SHORT_RESERVED)[0]
    foreign = Job(99, 0.0, (10.0,), 10.0, cutoff=TEST_CUTOFF)
    foreign.tasks[0].worker_id = short_id
    scheduler.on_task_finish(foreign.tasks[0])  # must not raise
    assert scheduler.snapshot() == before


def test_many_tasks_balanced_modulo_one():
    engine, scheduler = build(n_workers=5)
    trace = Trace([job(0, 0.0, *([20.0] * 13))], name="t")
    engine.run(trace)
    counts = [w.tasks_executed for w in engine.cluster.workers]
    assert max(counts) - min(counts) <= 1
    assert sum(counts) == 13
