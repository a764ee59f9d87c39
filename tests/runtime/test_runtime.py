"""Tests for the threaded prototype runtime (small, fast clusters).

The policies themselves are the registry's and are unit-tested under
``tests/schedulers/``; the host tests here check that the prototype
wires them to its monitors the same way the simulator's engine does.
"""

import pytest

from repro.cluster.faults import FaultPlan
from repro.cluster.job import Job, JobClass
from repro.cluster.task import TaskState
from repro.cluster.worker import ProbeEntry, TaskEntry, WorkerState
from repro.core.errors import ConfigurationError
from repro.experiments.config import RunSpec, build_engine
from repro.runtime import PrototypeCluster
from repro.schedulers.frontend import ProbeFrontend
from repro.schedulers.registry import policy_entry, registered_names
from repro.workloads.scaling import PrototypeScaledTrace
from repro.workloads.spec import JobSpec, Trace

ONLINE_POLICIES = [n for n in registered_names() if policy_entry(n).serves_online]

CUTOFF = 0.05


def spec(scheduler, n_workers=8, **changes):
    return RunSpec(scheduler=scheduler, n_workers=n_workers, cutoff=CUTOFF, **changes)


# -- the policy's host (no threads started) ---------------------------------
def host(scheduler, n_workers=8, **changes):
    return PrototypeCluster(spec(scheduler, n_workers, **changes))


def submit(cluster, job_id=0, durations=(0.01, 0.01)):
    job = Job(job_id, 0.0, durations, sum(durations) / len(durations), CUTOFF)
    with cluster.lock:
        cluster.scheduler.on_job_submit(job)
    return job


def queued(cluster):
    return [list(m.worker.queue) for m in cluster.monitors]


def test_frontend_sends_two_probes_per_task():
    cluster = host("sparrow", n_workers=10)
    submit(cluster, durations=(0.01,) * 3)
    entries = [e for q in queued(cluster) for e in q]
    assert len(entries) == 6
    assert all(isinstance(e, ProbeEntry) for e in entries)


def test_frontend_scope_restricts_targets():
    cluster = host("split", n_workers=10, short_partition_fraction=0.2)
    submit(cluster, durations=(0.01,) * 2)
    counts = [len(q) for q in queued(cluster)]
    assert counts[:8] == [0] * 8
    assert sum(counts[8:]) == 4


def test_frontend_late_binding_hands_each_task_once():
    cluster = host("sparrow", n_workers=4)
    job = submit(cluster, durations=(0.01, 0.02))
    probes = [e for q in queued(cluster) for e in q]
    bound = [cluster.bind_probe(p) for p in probes]
    real = [t for t in bound if t is not None]
    assert sorted(t.index for t in real) == [0, 1]
    assert all(t.job is job for t in real)
    assert probes[0].frontend.cancels_sent == 2


def test_coordinator_balances_tasks():
    cluster = host("centralized", n_workers=3)
    submit(cluster, durations=(0.08,) * 6)
    assert [len(q) for q in queued(cluster)] == [2, 2, 2]
    assert all(isinstance(e, TaskEntry) for q in queued(cluster) for e in q)


def test_coordinator_scope_restriction():
    cluster = host("hawk", n_workers=4, short_partition_fraction=0.5)
    submit(cluster, durations=(0.08,) * 4)
    assert [len(q) for q in queued(cluster)] == [2, 2, 0, 0]


def test_coordinator_completion_feedback_lowers_waiting():
    cluster = host("centralized", n_workers=2)
    job = submit(cluster, durations=(0.08, 0.08))
    policy = cluster.scheduler
    before = policy.waiting_time(0)
    task = cluster.monitors[0].worker.queue[0].task
    task.start(0)
    cluster.task_finished(task)
    assert policy.waiting_time(0) < before
    assert job.finished_tasks == 1


def test_coordinator_ignores_reports_outside_scope():
    cluster = host("hawk", n_workers=4, short_partition_fraction=0.5)
    submit(cluster, durations=(0.08,) * 2)
    waiting = cluster.scheduler.long_component.snapshot()
    short = submit(cluster, job_id=1, durations=(0.01,))
    # a short task run on the short partition is reported and ignored
    task = short.tasks[0]
    task.start(3)
    cluster.task_finished(task)
    assert cluster.scheduler.long_component.snapshot() == waiting


def test_release_stealable_hands_out_the_first_short_group():
    cluster = host("hawk", n_workers=4)
    monitor = cluster.monitors[0]
    long_job = Job(0, 0.0, (0.08,) * 2, 0.08, CUTOFF)
    short_job = Job(1, 0.0, (0.01,) * 3, 0.01, CUTOFF)
    monitor.worker.current_entry = TaskEntry(long_job.tasks[0])
    short_a, short_b, short_c = (TaskEntry(t) for t in short_job.tasks)
    long_b = TaskEntry(long_job.tasks[1])
    for entry in (short_a, short_b, long_b, short_c):
        monitor.deliver(entry)
    assert monitor.release_stealable() == [short_a, short_b]
    assert monitor.worker.queue == [long_b, short_c]
    # the short behind the queued long is the next group
    assert monitor.release_stealable() == [short_c]
    assert monitor.worker.queue == [long_b]
    assert monitor.release_stealable() == []


def stolen_state(jobs, probe):
    return (
        [t.was_stolen for job in jobs for t in job.tasks],
        probe.stolen,
        [job.stolen_tasks for job in jobs],
    )


def test_simulator_and_prototype_account_a_steal_alike():
    """The same stolen entries leave the same marks on both hosts, and a
    stolen probe's bound task counts once when the probe binds."""
    states = []
    for side in ("simulator", "prototype"):
        jobs = [
            Job(0, 0.0, (0.01, 0.01), 0.01, CUTOFF),
            Job(1, 0.0, (0.01,), 0.01, CUTOFF),
        ]
        probe = ProbeEntry(jobs[1], ProbeFrontend(jobs[1]))
        entries = [TaskEntry(jobs[0].tasks[0]), probe, TaskEntry(jobs[0].tasks[1])]
        if side == "simulator":
            engine = build_engine(spec("hawk", n_workers=4))
            victim, thief, waiter = engine.cluster.workers[:3]
            for entry in entries:
                victim.enqueue(entry)
            assert engine.transfer_stolen_entries(victim, thief, 0, 3) == 3
            moved = stolen_state(jobs, probe)
            # the thief started the first task; hand the probe to a waiter
            assert thief.remove_range(0, 1) == [probe]
            waiter.state, waiter.current_entry = WorkerState.WAITING, probe
            task = probe.frontend.next_task()
            engine._probe_response_arrives(waiter, probe, task)
            assert waiter.current_task is jobs[1].tasks[0]
        else:
            cluster = host("hawk", n_workers=4)
            cluster.mark_stolen(entries)
            moved = stolen_state(jobs, probe)
            assert cluster.bind_probe(probe) is jobs[1].tasks[0]
        assert moved == ([True, True, False], True, [2, 0])
        states.append(stolen_state(jobs, probe))
    assert states[0] == states[1] == ([True, True, True], True, [2, 1])


# -- full prototype runs ----------------------------------------------------
def small_trace():
    jobs = [
        JobSpec(0, 0.0, (0.08,) * 4),  # long-ish job
        JobSpec(1, 0.01, (0.005, 0.005)),
        JobSpec(2, 0.02, (0.005, 0.005)),
        JobSpec(3, 0.03, (0.005,)),
    ]
    return Trace(jobs, name="proto-small")


def run_proto(scheduler, trace=None, **changes):
    cluster = PrototypeCluster(spec(scheduler, **changes), timeout=30.0)
    result = cluster.run(trace or small_trace())
    return cluster, result


@pytest.mark.parametrize("scheduler", ONLINE_POLICIES)
def test_prototype_completes_all_jobs(scheduler):
    trace = small_trace()
    cluster, res = run_proto(scheduler, trace)
    assert len(res.jobs) == len(trace)
    assert all(r.completion_time > 0 for r in res.jobs)
    assert sum(m.tasks_executed for m in cluster.monitors) == trace.total_tasks
    if not policy_entry(scheduler).uses_stealing:
        assert res.stealing.entries_stolen == 0


def test_prototype_classifies_by_cutoff():
    _, res = run_proto("hawk")
    by_id = {r.job_id: r for r in res.jobs}
    assert by_id[0].scheduled_class is JobClass.LONG
    assert by_id[0].true_class is JobClass.LONG
    assert by_id[1].scheduled_class is JobClass.SHORT


def test_prototype_long_job_ids_override():
    """A carried classification (the spec's estimate) beats the cutoff."""
    trace = small_trace()
    # trace, time scale, cutoff, long job ids
    carried = PrototypeScaledTrace(trace, 1.0, CUTOFF, frozenset({1}))
    _, res = run_proto(
        "hawk",
        trace,
        estimate=carried.carried_estimate,
        estimate_tag="carried-classes",
    )
    by_id = {r.job_id: r for r in res.jobs}
    assert by_id[1].scheduled_class is JobClass.LONG
    assert by_id[0].scheduled_class is JobClass.SHORT


def test_prototype_runtimes_positive_and_ordered():
    _, res = run_proto("sparrow")
    for r in res.jobs:
        assert r.runtime > 0
        assert r.completion_time >= r.submit_time


def test_prototype_config_validation():
    with pytest.raises(ConfigurationError):
        host("omniscient")  # an oracle has no online counterpart
    with pytest.raises(ConfigurationError):
        host("hawk", faults=FaultPlan(params={"crash_fraction": 0.1}))
    with pytest.raises(ConfigurationError):
        host("nope")


def test_prototype_sparrow_has_no_stealing():
    _, res = run_proto("sparrow")
    assert res.stealing.rounds == 0
    assert res.stealing.entries_stolen == 0


def test_prototype_steal_stats_are_consistent():
    # Long tasks fill the three general monitors; the short job's probes
    # queue behind them, and the idle short-partition monitor steals.
    trace = Trace(
        [JobSpec(0, 0.0, (0.2,) * 3), JobSpec(1, 0.01, (0.005,) * 6)],
        name="proto-steal",
    )
    _, res = run_proto("hawk", trace, n_workers=4, short_partition_fraction=0.25)
    stats = res.stealing
    assert stats.entries_stolen > 0
    assert 0 < stats.successful_rounds <= stats.rounds
    assert stats.successful_rounds <= stats.victims_probed
    assert sum(r.stolen_tasks for r in res.jobs) <= stats.entries_stolen


def test_prototype_task_conservation():
    trace = small_trace()
    cluster, _ = run_proto("hawk", trace)
    executed = sum(m.tasks_executed for m in cluster.monitors)
    assert executed == trace.total_tasks
    tasks = [t for job in cluster.jobs for t in job.tasks]
    assert len(tasks) == trace.total_tasks
    assert all(t.state is TaskState.FINISHED for t in tasks)
    assert all(job.is_complete for job in cluster.jobs)


# -- shutdown hardening -----------------------------------------------------
class StuckMonitor:
    """Stands in for a NodeMonitor thread that ignores shutdown."""

    def __init__(self, monitor_id, stuck):
        self.monitor_id = monitor_id
        self.stuck = stuck
        self.shutdown_calls = 0
        self.join_timeouts = []

    def shutdown(self):
        self.shutdown_calls += 1

    def join(self, timeout=None):
        self.join_timeouts.append(timeout)

    def is_alive(self):
        return self.stuck


def cluster_with_stubs(stuck_ids, n=4, join_timeout=0.01):
    cluster = PrototypeCluster(spec("sparrow", n), join_timeout=join_timeout)
    cluster.monitors = [StuckMonitor(i, i in stuck_ids) for i in range(n)]
    return cluster


def test_shutdown_and_join_reports_leaked_monitors(caplog):
    cluster = cluster_with_stubs(stuck_ids={1, 3})
    with caplog.at_level("WARNING", logger="repro.runtime.engine"):
        leaked = cluster.shutdown_and_join()
    assert leaked == (1, 3)
    assert cluster.leaked_monitors == (1, 3)
    assert any("did not exit within" in r.message for r in caplog.records)
    # every monitor was asked to stop and joined with the configured budget
    for monitor in cluster.monitors:
        assert monitor.shutdown_calls == 1
        assert monitor.join_timeouts == [0.01]


def test_shutdown_and_join_clean_exit_logs_nothing(caplog):
    cluster = cluster_with_stubs(stuck_ids=set())
    with caplog.at_level("WARNING", logger="repro.runtime.engine"):
        assert cluster.shutdown_and_join() == ()
    assert cluster.leaked_monitors == ()
    assert not caplog.records


def test_join_timeout_must_be_positive():
    with pytest.raises(ConfigurationError):
        PrototypeCluster(spec("sparrow"), join_timeout=0.0)


def test_run_leaves_no_leaked_monitors():
    cluster, _ = run_proto("hawk")
    assert cluster.leaked_monitors == ()
    assert all(not m.is_alive() for m in cluster.monitors)
