"""Tests for randomized work stealing."""

from itertools import product

import pytest

from repro.cluster import Cluster, ClusterEngine, EngineConfig, JobClass, Partition
from repro.core.errors import ConfigurationError
from repro.experiments import ledger
from repro.experiments.config import RunSpec, build_engine, high_load_size
from repro.experiments.fig_faults import plan_for
from repro.schedulers import HawkScheduler, WorkStealing
from repro.workloads.registry import quick_spec
from repro.workloads.spec import Trace
from tests.conftest import TEST_CUTOFF, job, long_job, short_job


def build(n_workers=8, cap=10, short_fraction=0.25):
    stealing = WorkStealing(cap=cap)
    engine = ClusterEngine(
        Cluster(n_workers, short_partition_fraction=short_fraction),
        HawkScheduler(),
        EngineConfig(cutoff=TEST_CUTOFF),
        stealing=stealing,
    )
    return engine, stealing


def test_cap_validation():
    with pytest.raises(ConfigurationError):
        WorkStealing(cap=0)


def test_double_bind_rejected():
    engine, stealing = build()
    with pytest.raises(RuntimeError):
        stealing.bind(engine)


def test_stealing_rescues_blocked_short_tasks():
    """Shorts queued behind longs must migrate to idle workers."""
    engine, stealing = build(n_workers=8)
    # 6 long jobs saturate the 6 general workers, then shorts arrive.
    trace_jobs = [long_job(i, 0.0, tasks=1) for i in range(6)]
    trace_jobs += [short_job(10 + i, 1.0, tasks=2) for i in range(4)]
    res = engine.run(Trace(trace_jobs, name="t"))
    stats = res.stealing
    assert stats.entries_stolen > 0
    # Short jobs must not wait for the 1000 s long tasks.
    short_runtimes = res.runtimes(JobClass.SHORT)
    assert max(short_runtimes) < 500.0


def test_without_stealing_shorts_block():
    engine = ClusterEngine(
        Cluster(8, short_partition_fraction=0.25),
        HawkScheduler(),
        EngineConfig(cutoff=TEST_CUTOFF),
        stealing=None,
    )
    trace_jobs = [long_job(i, 0.0, tasks=1) for i in range(6)]
    trace_jobs += [short_job(10 + i, 1.0, tasks=2) for i in range(4)]
    res = engine.run(Trace(trace_jobs, name="t"))
    # Short partition has 2 workers for 8 short tasks; some short probes
    # land behind longs in the general partition and stay there.
    assert max(res.runtimes(JobClass.SHORT)) > 500.0


def test_victims_only_in_general_partition():
    engine, stealing = build(n_workers=8)
    trace_jobs = [long_job(i, 0.0, tasks=1) for i in range(6)]
    trace_jobs += [short_job(10 + i, 1.0, tasks=2) for i in range(6)]
    engine.run(Trace(trace_jobs, name="t"))
    for wid in engine.cluster.ids(Partition.SHORT_RESERVED):
        assert engine.cluster.worker(wid).tasks_stolen_from == 0


def test_short_partition_workers_do_steal():
    engine, stealing = build(n_workers=8)
    trace_jobs = [long_job(i, 0.0, tasks=1) for i in range(6)]
    trace_jobs += [short_job(10 + i, 1.0, tasks=3) for i in range(6)]
    engine.run(Trace(trace_jobs, name="t"))
    short_ids = engine.cluster.ids(Partition.SHORT_RESERVED)
    stolen_by_short = sum(
        engine.cluster.worker(w).tasks_stolen_by for w in short_ids
    )
    assert stolen_by_short > 0


def test_stolen_tasks_recorded_on_jobs():
    engine, _ = build(n_workers=8)
    trace_jobs = [long_job(i, 0.0, tasks=1) for i in range(6)]
    trace_jobs += [short_job(10 + i, 1.0, tasks=2) for i in range(4)]
    res = engine.run(Trace(trace_jobs, name="t"))
    bound = sum(r.stolen_tasks for r in res.jobs)
    # Stolen probes that end up cancelled never bind a task, so the
    # per-job tally is a lower bound on entries moved.
    assert 0 < bound <= res.stealing.entries_stolen


def test_long_entries_never_stolen():
    engine, _ = build(n_workers=4, short_fraction=0.25)
    # More long jobs than general workers: longs queue behind longs.
    trace_jobs = [long_job(i, 0.0, tasks=2) for i in range(5)]
    res = engine.run(Trace(trace_jobs, name="t"))
    assert res.stealing.entries_stolen == 0
    long_records = res.records(JobClass.LONG)
    assert all(r.stolen_tasks == 0 for r in long_records)


def test_stats_counters_consistent():
    engine, _ = build(n_workers=8)
    trace_jobs = [long_job(i, 0.0, tasks=1) for i in range(6)]
    trace_jobs += [short_job(10 + i, 1.0, tasks=2) for i in range(4)]
    res = engine.run(Trace(trace_jobs, name="t"))
    stats = res.stealing
    assert stats.successful_rounds <= stats.rounds
    assert stats.victims_probed >= stats.successful_rounds
    assert 0.0 <= stats.success_rate <= 1.0


def test_cap_one_limits_probes_per_round():
    engine, _ = build(n_workers=8, cap=1)
    trace_jobs = [long_job(i, 0.0, tasks=1) for i in range(6)]
    trace_jobs += [short_job(10 + i, 1.0, tasks=2) for i in range(4)]
    res = engine.run(Trace(trace_jobs, name="t"))
    assert res.stealing.victims_probed <= res.stealing.rounds


def test_higher_cap_not_worse_for_shorts():
    results = {}
    for cap in (1, 10):
        engine, _ = build(n_workers=10, cap=cap)
        trace_jobs = [long_job(i, 0.0, tasks=1) for i in range(7)]
        trace_jobs += [short_job(10 + i, 1.0, tasks=2) for i in range(6)]
        res = engine.run(Trace(trace_jobs, name="t"))
        results[cap] = sorted(res.runtimes(JobClass.SHORT))[len(res.runtimes(JobClass.SHORT)) // 2]
    assert results[10] <= results[1] * 1.5  # cap 10 at least comparable


def test_single_worker_cluster_cannot_steal():
    stealing = WorkStealing()
    engine = ClusterEngine(
        Cluster(2, short_partition_fraction=0.5),
        HawkScheduler(),
        EngineConfig(cutoff=TEST_CUTOFF),
        stealing=stealing,
    )
    res = engine.run(Trace([short_job(0, 0.0, tasks=2)], name="t"))
    assert res.stealing.entries_stolen == 0


def test_steal_hint_count_returns_to_zero():
    engine, _ = build(n_workers=8)
    trace_jobs = [long_job(i, 0.0, tasks=1) for i in range(6)]
    trace_jobs += [short_job(10 + i, 1.0, tasks=2) for i in range(4)]
    engine.run(Trace(trace_jobs, name="t"))
    assert engine.cluster.steal_hint_count == 0


def test_stolen_probe_binds_and_marks_task():
    engine, _ = build(n_workers=8)
    trace_jobs = [long_job(i, 0.0, tasks=1) for i in range(6)]
    trace_jobs += [short_job(10 + i, 1.0, tasks=2) for i in range(4)]
    res = engine.run(Trace(trace_jobs, name="t"))
    stolen_jobs = [r for r in res.jobs if r.stolen_tasks > 0]
    assert stolen_jobs
    assert all(r.true_class is JobClass.SHORT for r in stolen_jobs)


def test_victim_draws_match_stdlib_randrange():
    """The inlined getrandbits rejection sampler must consume the RNG
    stream exactly as ``Random.randrange`` does — stealing outcomes (and
    so every figure) depend on the draws being bit-identical."""
    import random

    for n in (1, 2, 3, 7, 8, 100, 1023, 1024, 12345):
        reference = random.Random(42)
        inlined = random.Random(42)
        getrandbits = inlined.getrandbits
        bits = n.bit_length()
        for _ in range(200):
            expected = reference.randrange(n)
            victim = getrandbits(bits)
            while victim >= n:
                victim = getrandbits(bits)
            assert victim == expected, n


def test_cancelled_retry_handles_do_not_accumulate():
    """Regression: park/wake churn in lightly loaded runs must not grow
    the heap with the retries it revokes.  A revoked retry is at most
    ``RETRY_MAX`` simulated seconds out and each idle transition revokes
    at most one, so revoked entries drain on their own and the heap
    stays in the live-event ballpark."""
    engine, stealing = build(n_workers=16)
    # A lightly loaded trickle: one short job at a time with idle gaps,
    # so idle workers repeatedly schedule, revoke and re-schedule steal
    # retries (every delivery to a worker with a pending retry revokes it).
    trace_jobs = [long_job(0, 0.0, tasks=2)]
    trace_jobs += [short_job(1 + i, 5.0 * i, tasks=2) for i in range(80)]
    samples = []

    def sampler():
        sim = engine.sim
        samples.append(sim.pending_events)
        if not engine.all_jobs_done:
            sim.schedule(1.0, sampler)

    engine.sim.schedule(1.0, sampler)
    engine.run(Trace(trace_jobs, name="trickle"))
    assert stealing.stats().rounds > 0  # the churn actually happened
    # The heap stays in the same ballpark as the live event count
    # (pending job submissions + idle-worker timers + in-flight
    # messages), instead of growing with the revokes issued over the run.
    max_pending = max(samples)
    assert max_pending <= 2 * (16 + len(trace_jobs)), max_pending


def test_park_resets_backoff_ladder():
    """Regression: a worker that parked kept its escalated backoff, so
    after a wake its first failed retry resumed at the stale pre-park
    maximum instead of restarting from ``RETRY_INITIAL``.  Parking ends
    the contention period: every path into the park must zero the ladder."""
    engine, stealing = build(n_workers=8)
    cluster = engine.cluster
    worker = cluster.workers[0]
    assert cluster.steal_hint_count == 0  # nothing stealable -> park

    # parking after a failed idle round
    worker.steal_backoff = 32.0
    stealing._schedule_retry(worker)
    assert stealing._parked == {worker.worker_id: worker}
    assert worker.steal_backoff == 0.0

    # parking after a failed retry
    other = cluster.workers[1]
    other.steal_backoff = 64.0
    stealing._retry_fires(other)
    assert list(stealing._parked) == [worker.worker_id, other.worker_id]
    assert other.steal_backoff == 0.0

    # a retry scheduled after the reset starts back at RETRY_INITIAL
    cluster.steal_hint_count = 1  # pretend work appeared
    del stealing._parked[worker.worker_id]
    stealing._schedule_retry(worker)
    assert worker.steal_backoff == stealing.RETRY_INITIAL
    worker.pending_steal_retry.clear()


def test_wake_takes_most_recently_parked_first():
    """A wake takes the most recently parked workers first, at most
    ``WAKE_LIMIT`` of them.  A parked worker that goes idle again leaves
    its place and parks anew at the front of the line."""
    engine, stealing = build(n_workers=80, short_fraction=0.0)
    sim = engine.sim
    workers = engine.cluster.workers
    woken = []
    stealing._wake_fires = woken.append  # record each wake's group
    a, b, c = workers[:3]
    for worker in (a, b, c):
        stealing._schedule_retry(worker)  # nothing stealable: parks
    stealing.on_worker_idle(a)  # unparks, fails its round, parks again
    stealing.on_steal_work_appeared()
    sim.run()
    assert woken == [[a, c, b]]

    rest = workers[3:]
    assert len(rest) > WorkStealing.WAKE_LIMIT
    for worker in rest:
        stealing._schedule_retry(worker)
    stealing.on_steal_work_appeared()
    stealing.on_steal_work_appeared()
    stealing.on_steal_work_appeared()  # nobody left parked: no wake
    sim.run()
    newest_first = rest[::-1]
    assert woken[1:] == [
        newest_first[: WorkStealing.WAKE_LIMIT],
        newest_first[WorkStealing.WAKE_LIMIT :],
    ]


#: The stealing policies on quick traces, seed 0, with and without
#: ``fig_faults.plan_for(0.3, horizon)``; the faulted runs drive crashes
#: and restarts through ``on_worker_dead`` and the backoff reset.  Each
#: run is recomputed against its run-ledger row, every column.
STEALING_RUNS = list(
    product(
        ("google", "motivation"),
        ("hawk", "hawk-no-centralized", "hawk-no-partition"),
        (False, True),
    )
)


@pytest.mark.parametrize("workload, policy, faulted", STEALING_RUNS)
def test_stealing_runs_match_pins(workload, policy, faulted):
    key = ("run", workload, "0", policy, ledger.FAULT_LEVELS[faulted])
    assert ledger.check([key]) == []


@pytest.mark.parametrize("faulted", [False, True])
def test_inlined_hint_sync_matches_worker_steal_hint(faulted):
    """The engine's ``_sync_steal_hint`` inlines ``Worker.steal_hint()``.
    After every call on a Hawk run (with and without crashes) the synced
    worker's counted hint must equal the method's answer, its
    ``Cluster.steal_flags`` bit must mirror that hint, the cluster
    tally must equal the number of set bits, and the checked run must
    still give the run ledger's result."""
    spec = quick_spec("google")
    trace = spec.trace(0)
    faults = plan_for(0.3, trace.horizon) if faulted else None
    run_spec = RunSpec.for_workload(
        spec, "hawk", high_load_size(trace), 0, faults=faults
    )
    engine = build_engine(run_spec)
    cluster = engine.cluster
    flags = cluster.steal_flags
    sync = engine._sync_steal_hint
    calls = [0, 0]  # all calls, calls on general-partition workers

    def checked_sync(worker):
        sync(worker)
        calls[0] += 1
        if not worker.in_short_partition:
            calls[1] += 1
            assert worker.counted_steal_hint is worker.steal_hint()
        assert flags[worker.worker_id] == worker.counted_steal_hint
        assert cluster.steal_hint_count == sum(flags)

    engine._sync_steal_hint = checked_sync
    result = engine.run(trace)
    assert calls[1] > 0 and calls[0] > calls[1]
    _, entries = ledger.load()
    pinned = entries[("run", "google", "0", "hawk", ledger.FAULT_LEVELS[faulted])]
    assert ledger.sha256(repr(result)) == pinned[0]
