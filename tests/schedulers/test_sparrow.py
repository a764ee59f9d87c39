"""Tests for the Sparrow batch-probing policy."""

import pytest

from repro.cluster import Cluster, ClusterEngine, EngineConfig, Partition
from repro.core.errors import ConfigurationError
from repro.schedulers import SparrowScheduler
from repro.workloads.spec import JobSpec, Trace
from tests.conftest import TEST_CUTOFF, job


def build(n_workers=10, probe_ratio=2, partition=Partition.ALL, seed=0):
    scheduler = SparrowScheduler(probe_ratio=probe_ratio, partition=partition)
    engine = ClusterEngine(
        Cluster(n_workers, short_partition_fraction=0.2),
        scheduler,
        EngineConfig(cutoff=TEST_CUTOFF, seed=seed),
    )
    return engine, scheduler


def test_probe_ratio_validation():
    with pytest.raises(ConfigurationError):
        SparrowScheduler(probe_ratio=0)


def test_two_probes_per_task_sent():
    engine, scheduler = build()
    trace = Trace([job(0, 0.0, 10.0, 10.0, 10.0)], name="t")
    engine.run(trace)
    assert scheduler.probes_sent == 6
    assert scheduler.jobs_scheduled == 1


def test_custom_probe_ratio():
    engine, scheduler = build(probe_ratio=3)
    engine.run(Trace([job(0, 0.0, 10.0, 10.0)], name="t"))
    assert scheduler.probes_sent == 6


def test_probes_land_on_distinct_workers_when_possible():
    engine, _ = build(n_workers=10)
    trace = Trace([job(0, 0.0, *([10.0] * 4))], name="t")
    res = engine.run(trace)
    # 8 probes over 10 distinct workers: no probe queues behind another,
    # so all tasks finish in ~1 task time.
    assert res.jobs[0].runtime < 11.0


def test_partition_scope_restricts_placement():
    engine, _ = build(partition=Partition.SHORT_RESERVED)
    trace = Trace([job(0, 0.0, 10.0, 10.0)], name="t")
    engine.run(trace)
    general = list(engine.cluster.ids(Partition.GENERAL))
    assert all(engine.cluster.worker(w).tasks_executed == 0 for w in general)


def test_partition_scope_restricts_probe_targets():
    engine, scheduler = build(partition=Partition.SHORT_RESERVED)
    from repro.cluster.job import Job

    targets = []
    engine.place_probes = lambda ids, job, frontend: targets.extend(ids)
    scheduler.on_job_submit(Job(0, 0.0, (10.0, 10.0), 10.0, cutoff=TEST_CUTOFF))
    assert len(targets) == 4
    assert set(targets) <= set(engine.cluster.ids(Partition.SHORT_RESERVED))


def test_empty_partition_rejected_at_bind():
    scheduler = SparrowScheduler(partition=Partition.SHORT_RESERVED)
    with pytest.raises(ConfigurationError):
        ClusterEngine(
            Cluster(10),  # no short partition configured
            scheduler,
            EngineConfig(cutoff=TEST_CUTOFF),
        )


def test_oversubscribed_probes_still_complete():
    # 2t probes > cluster size: probes wrap around, all tasks still run.
    engine, _ = build(n_workers=3)
    trace = Trace([job(0, 0.0, *([10.0] * 12))], name="big")
    res = engine.run(trace)
    assert res.jobs[0].completion_time > 0


def test_job_with_more_tasks_than_workers_completes():
    engine, _ = build(n_workers=2)
    trace = Trace([job(0, 0.0, *([5.0] * 9))], name="big")
    res = engine.run(trace)
    # 9 tasks on 2 workers: at least ceil(9/2) * 5 s of serial work.
    assert res.jobs[0].runtime >= 25.0- 1e-6


def test_late_binding_prevents_double_assignment():
    engine, scheduler = build(n_workers=10)
    trace = Trace([job(0, 0.0, *([10.0] * 5)) for _ in range(1)], name="t")
    engine.run(trace)
    executed = sum(w.tasks_executed for w in engine.cluster.workers)
    assert executed == 5  # despite 10 probes


def test_scheduler_name():
    assert SparrowScheduler().name == "sparrow"


def test_rebind_rejected():
    engine, scheduler = build()
    with pytest.raises(RuntimeError):
        scheduler.bind(engine)
