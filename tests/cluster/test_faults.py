"""Deterministic fault injection: plans, chaos hooks, cache identity."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FAULT_PARAMS, FaultPlan
from repro.core.errors import ConfigurationError, SimulationError
from repro.experiments.config import RunSpec, build_engine, execute
from repro.experiments.parallel import DiskCache, SweepExecutor, cache_key
from repro.schedulers.registry import registered_names
from repro.workloads.spec import Trace
from tests.conftest import TEST_CUTOFF, long_job, short_job

#: Every fault family active at once — the torture plan.
CHAOS = dict(
    crash_fraction=0.25,
    crash_start=1.0,
    crash_window=60.0,
    restart_delay=30.0,
    msg_loss=0.2,
    msg_extra_delay=0.05,
    msg_extra_delay_prob=0.3,
    straggler_fraction=0.2,
    straggler_slowdown=2.0,
    central_outage_start=5.0,
    central_outage_duration=40.0,
)


def chaos_trace(name="chaos"):
    jobs = [long_job(0, 0.0, 4), long_job(1, 2.0, 4)]
    jobs.extend(short_job(10 + i, 1.0 + 2.0 * i, 3) for i in range(12))
    return Trace(jobs, name=name)


def spec_for(scheduler="hawk", faults=None, seed=0):
    return RunSpec(
        scheduler=scheduler,
        n_workers=12,
        cutoff=TEST_CUTOFF,
        seed=seed,
        faults=faults,
    )


def budgeted_engine(spec, max_events=200_000):
    """``build_engine(spec)`` with a runaway guard, so a run that cannot
    finish fails fast instead of hanging the suite."""
    engine = build_engine(spec)
    engine.config = dataclasses.replace(engine.config, max_events=max_events)
    return engine


# -- plan construction and cache identity ------------------------------------
def test_empty_plan_normalizes_to_none():
    assert FaultPlan().is_empty
    assert FaultPlan.of().is_empty
    spec = spec_for(faults=FaultPlan())
    assert spec.faults is None
    assert spec == spec_for()
    assert spec.digest == spec_for().digest


def test_plan_accepts_mapping_and_validates():
    spec = spec_for(faults={"crash_fraction": 0.1})
    assert isinstance(spec.faults, FaultPlan)
    assert spec.faults.params["crash_fraction"] == 0.1
    with pytest.raises(ConfigurationError):
        FaultPlan.of(crash_fraction=0.6)  # above the schema maximum
    with pytest.raises(ConfigurationError):
        FaultPlan.of(no_such_knob=1.0)


def test_fault_plans_move_the_cache_digest():
    base = spec_for()
    faulted = spec_for(faults=FaultPlan.of(crash_fraction=0.1))
    harder = spec_for(faults=FaultPlan.of(crash_fraction=0.2))
    digests = {base.digest, faulted.digest, harder.digest}
    assert len(digests) == 3
    trace = chaos_trace()
    assert cache_key(base, trace) != cache_key(faulted, trace)


def test_fault_free_run_bytes_unchanged_by_empty_plan():
    trace = chaos_trace()
    plain = execute(spec_for(), trace)
    empty = execute(spec_for(faults=FaultPlan()), trace)
    assert pickle.dumps(plain) == pickle.dumps(empty)


# -- determinism across execution paths --------------------------------------
@pytest.mark.parametrize("scheduler", ["hawk", "sparrow", "centralized"])
def test_fault_run_deterministic(scheduler):
    trace = chaos_trace()
    spec = spec_for(scheduler, faults=FaultPlan.of(**CHAOS))
    first = execute(spec, trace)
    second = execute(spec, trace)
    assert pickle.dumps(first) == pickle.dumps(second)
    assert len(first.jobs) == len(trace)
    assert sum(j.retried_tasks for j in first.jobs) > 0


def test_fault_run_identical_across_serial_pool_and_cache(tmp_path):
    trace = chaos_trace()
    specs = [
        spec_for("hawk", faults=FaultPlan.of(**CHAOS)),
        spec_for("sparrow", faults=FaultPlan.of(**CHAOS)),
    ]
    serial = SweepExecutor(max_workers=1, disk_cache=None)
    pool = SweepExecutor(max_workers=2, disk_cache=None)
    writer = SweepExecutor(max_workers=1, disk_cache=DiskCache(tmp_path))
    expected = serial.run_many([(s, trace) for s in specs])
    pooled = pool.run_many([(s, trace) for s in specs])
    writer.run_many([(s, trace) for s in specs])
    reader = SweepExecutor(max_workers=1, disk_cache=DiskCache(tmp_path))
    cached = reader.run_many([(s, trace) for s in specs])
    assert reader.disk_hits == 2
    for want, via_pool, via_cache in zip(expected, pooled, cached):
        assert pickle.dumps(want) == pickle.dumps(via_pool)
        assert pickle.dumps(want) == pickle.dumps(via_cache)


# -- crash semantics ---------------------------------------------------------
def test_crashed_workers_requeue_tasks_and_jobs_complete():
    trace = chaos_trace()
    plan = FaultPlan.of(
        crash_fraction=0.5, crash_start=1.0, crash_window=40.0,
        restart_delay=25.0,
    )
    engine = build_engine(spec_for("sparrow", faults=plan))
    result = engine.run(trace)
    faults = engine._faults
    assert faults is not None
    assert faults.crashes > 0
    assert faults.restarts == faults.crashes
    assert faults.tasks_requeued > 0
    assert len(result.jobs) == len(trace)
    assert sum(j.retried_tasks for j in result.jobs) == faults.tasks_requeued
    assert all(j.completion_time > j.submit_time for j in result.jobs)


def test_permanently_dead_workers_do_not_strand_jobs():
    trace = chaos_trace()
    plan = FaultPlan.of(
        crash_fraction=0.5, crash_start=1.0, crash_window=40.0,
        restart_delay=0.0,  # never restart
    )
    engine = build_engine(spec_for("sparrow", faults=plan))
    result = engine.run(trace)
    faults = engine._faults
    assert faults.crashes > 0
    assert faults.restarts == 0
    assert len(result.jobs) == len(trace)


# -- centralized outage / graceful degradation --------------------------------
def test_centralized_defers_jobs_during_outage():
    trace = chaos_trace()
    plan = FaultPlan.of(central_outage_start=5.0, central_outage_duration=40.0)
    engine = build_engine(spec_for("centralized", faults=plan))
    result = engine.run(trace)
    assert engine.scheduler.jobs_deferred > 0
    assert len(result.jobs) == len(trace)
    # A job submitted inside the outage cannot start (so cannot finish)
    # before the window ends.
    for record in result.jobs:
        if 5.0 <= record.submit_time < 45.0:
            assert record.completion_time > 45.0


def test_hawk_degrades_long_jobs_to_probes_during_outage():
    trace = chaos_trace()
    plan = FaultPlan.of(central_outage_start=0.0, central_outage_duration=10.0)
    engine = build_engine(spec_for("hawk", faults=plan))
    result = engine.run(trace)
    # Both long jobs arrive inside the outage: they go through the
    # degraded distributed path instead of waiting for the scheduler.
    assert engine.scheduler.degraded_long_jobs == 2
    # Nothing waited in the centralized scheduler's deferral queue.
    assert engine.scheduler._long.jobs_deferred == 0
    assert len(result.jobs) == len(trace)


@pytest.mark.parametrize("scheduler", registered_names())
def test_every_policy_completes_jobs_submitted_during_an_outage(scheduler):
    """Jobs deferred by a centralized outage are placed when it ends."""
    trace = chaos_trace()
    plan = FaultPlan.of(central_outage_start=0.0, central_outage_duration=50.0)
    result = budgeted_engine(spec_for(scheduler, faults=plan)).run(trace)
    assert len(result.jobs) == len(trace)


def test_hawk_short_jobs_unaffected_by_centralized_outage():
    trace = chaos_trace()
    plan = FaultPlan.of(central_outage_start=5.0, central_outage_duration=40.0)
    plain = execute(spec_for("hawk"), trace)
    faulted = execute(spec_for("hawk", faults=plan), trace)
    plain_short = {
        j.job_id: j.completion_time for j in plain.jobs if j.job_id >= 10
    }
    faulted_short = {
        j.job_id: j.completion_time for j in faulted.jobs if j.job_id >= 10
    }
    # Short jobs never touch the centralized scheduler, and the degraded
    # long path only adds probes; shorts should be barely moved.
    for job_id, baseline in plain_short.items():
        assert faulted_short[job_id] == pytest.approx(baseline, rel=0.25)


# -- stragglers ---------------------------------------------------------------
def test_stragglers_slow_the_run_down():
    trace = chaos_trace()
    plan = FaultPlan.of(straggler_fraction=0.9, straggler_slowdown=4.0)
    plain = execute(spec_for("sparrow"), trace)
    slowed = execute(spec_for("sparrow", faults=plan), trace)
    assert slowed.end_time > plain.end_time
    assert len(slowed.jobs) == len(trace)


# -- message chaos ------------------------------------------------------------
def test_message_loss_delays_but_never_drops_work():
    trace = chaos_trace()
    plan = FaultPlan.of(msg_loss=0.5)
    plain = execute(spec_for("sparrow"), trace)
    lossy = execute(spec_for("sparrow", faults=plan), trace)
    assert len(lossy.jobs) == len(trace)
    # Retransmissions push completions later on average.
    assert sum(j.completion_time for j in lossy.jobs) > sum(
        j.completion_time for j in plain.jobs
    )


# -- guard rails --------------------------------------------------------------
def test_attach_faults_after_run_starts_is_rejected():
    engine = build_engine(spec_for("sparrow"))
    engine.run(chaos_trace())
    with pytest.raises(SimulationError):
        engine.attach_faults(FaultPlan.of(crash_fraction=0.1))


# -- generated plans ----------------------------------------------------------
#: Every fault knob within its declared bounds; unbounded ones capped at 200 s.
fault_plans = st.fixed_dictionaries(
    {
        p.name: st.floats(
            min_value=p.minimum,
            max_value=200.0 if p.maximum is None else p.maximum,
        )
        for p in FAULT_PARAMS
    }
).map(lambda knobs: FaultPlan.of(**knobs))


@settings(max_examples=60, deadline=None)
@given(plan=fault_plans, scheduler=st.sampled_from(
    ["hawk", "sparrow", "centralized", "split"]
))
def test_any_fault_plan_completes_every_job(plan, scheduler):
    trace = chaos_trace()
    engine = budgeted_engine(spec_for(scheduler, faults=plan))
    result = engine.run(trace)
    assert len(result.jobs) == len(trace)
    assert math.isfinite(result.end_time)
    requeued = engine._faults.tasks_requeued if engine._faults else 0
    assert sum(j.retried_tasks for j in result.jobs) == requeued
