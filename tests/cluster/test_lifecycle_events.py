"""The engine's lifecycle stream: pinned, batching-blind and free of
observer effect.

``ClusterEngine`` narrates its transitions (submission, placement, task
start, task completion, job completion, steal transfers and the run's
end) to an optional sink, and folding a run's stream gives its
``RunResult``.
The run ledger (``benchmarks/results/run_ledger.txt``) pins the stream's
``count:digest`` on every quick run; its digests were first recorded
from the service's original subclass-based observer, so the
engine-emitted stream is held to exactly what the service has always
logged: ``completed`` lands after the finishing worker's next
``started``, and ``stolen`` after the thief's starts.  Here every
registered policy's stream matches its ledger pin with transport
batching on and off, gives the same stream both ways on a dense trace,
and gives the same result with a sink as without.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random

import pytest

from repro.cluster.engine import (
    EVENT_KINDS,
    KIND_COMPLETED,
    KIND_RUN_END,
    KIND_STARTED,
    KIND_STOLEN,
    KIND_SUBMITTED,
)
from repro.experiments import ledger
from repro.experiments.config import RunSpec, high_load_size
from repro.experiments.fig_faults import plan_for
from repro.schedulers.registry import build_engine, registered_names
from repro.workloads.registry import quick_spec
from repro.workloads.spec import JobSpec, Trace


def pin_trace() -> Trace:
    """60 jobs, a quarter of them long, dense enough that Hawk steals."""
    rng = random.Random(16)
    jobs = []
    t = 0.0
    for i in range(60):
        t += round(rng.expovariate(1 / 1.5), 3)
        if rng.random() < 0.25:
            durations = tuple(
                round(rng.uniform(40.0, 120.0), 3)
                for _ in range(rng.randint(4, 10))
            )
        else:
            durations = tuple(
                round(rng.uniform(0.5, 6.0), 3)
                for _ in range(rng.randint(1, 6))
            )
        jobs.append(JobSpec(job_id=i, submit_time=t, task_durations=durations))
    return Trace(jobs, name="lifecycle-pin")


def pin_spec(policy: str) -> RunSpec:
    return RunSpec(scheduler=policy, n_workers=12, cutoff=20.0, seed=3)


def record_stream(policy: str, batched: bool):
    events: list[tuple] = []

    def sink(kind, vtime, job_id, task_index, worker_id, payload):
        events.append(
            (
                kind,
                vtime,
                job_id,
                task_index,
                worker_id,
                json.dumps(payload or {}, sort_keys=True),
            )
        )

    engine = build_engine(pin_spec(policy), sink=sink)
    engine.transport_batching = batched
    result = engine.run(pin_trace())
    return events, result


#: The ledger run (workload, seed; no faults) whose ``stream`` column
#: pins each policy's stream: the smallest built-in quick workload, on
#: which the Hawk family steals.
PIN_RUN = ("google-prototype", "0")


def test_every_registered_policy_is_pinned():
    _, entries = ledger.load()
    pinned = {key[3] for key in entries if key[:3] == ("run", *PIN_RUN)}
    assert pinned == set(registered_names())


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("policy", sorted(registered_names()))
def test_stream_matches_pinned_digest(policy, batched):
    workload, seed = PIN_RUN
    spec = quick_spec(workload)
    trace = spec.trace(int(seed))
    run_spec = RunSpec.for_workload(
        spec, policy, high_load_size(trace), int(seed)
    )
    stream = ledger.StreamDigest()
    engine = build_engine(run_spec, sink=stream)
    engine.transport_batching = batched
    engine.run(trace)
    _, entries = ledger.load()
    pinned = entries[("run", workload, seed, policy, "plain")]
    assert stream.token() == pinned[ledger.COLUMNS["run"].index("stream")]


@pytest.mark.parametrize("policy", sorted(registered_names()))
def test_stream_is_the_same_with_batching_on_and_off(policy):
    """Batching changes how messages ride the heap, never what the
    service logs."""
    batched, _ = record_stream(policy, batched=True)
    unbatched, _ = record_stream(policy, batched=False)
    assert unbatched == batched
    assert {e[0] for e in batched} <= set(EVENT_KINDS)


def test_hawk_stream_exercises_stealing():
    events, result = record_stream("hawk", batched=True)
    steals = [e for e in events if e[0] == KIND_STOLEN]
    assert len(steals) == result.stealing.successful_rounds > 0
    assert sum(json.loads(e[5])["entries"] for e in steals) == (
        result.stealing.entries_stolen
    )


def test_every_job_completes_once_after_its_last_start():
    events, result = record_stream("hawk", batched=True)
    completed = [e[2] for e in events if e[0] == KIND_COMPLETED]
    assert sorted(completed) == sorted(r.job_id for r in result.jobs)
    last_start = {}
    for position, event in enumerate(events):
        if event[0] == KIND_STARTED:
            last_start[event[2]] = position
        elif event[0] == KIND_COMPLETED:
            assert last_start[event[2]] < position


@pytest.mark.parametrize("policy", sorted(registered_names()))
def test_sink_has_no_observer_effect(policy):
    trace = pin_trace()
    plain = build_engine(pin_spec(policy)).run(trace)
    _, observed = record_stream(policy, batched=True)
    assert observed == plain
    assert pickle.dumps(observed) == pickle.dumps(plain)


def test_submissions_open_the_stream_and_run_end_closes_it():
    events, result = record_stream("hawk", batched=True)
    kinds = [e[0] for e in events]
    n_jobs = len(result.jobs)
    assert kinds[:n_jobs] == [KIND_SUBMITTED] * n_jobs
    assert KIND_SUBMITTED not in kinds[n_jobs:]
    assert kinds.index(KIND_RUN_END) == len(kinds) - 1
    assert events[-1][1] == result.end_time


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("policy", sorted(registered_names()))
def test_folded_stream_equals_the_run_result(policy, faulted, batched):
    """Every ``RunResult`` field but the scheduler's name comes back
    from the stream: ``run-end`` carries what no other event can."""
    trace = pin_trace()
    plan = plan_for(0.3, trace.horizon) if faulted else None
    spec = dataclasses.replace(pin_spec(policy), faults=plan)
    plain, stream = build_engine(spec), ledger.StreamDigest()
    observed = build_engine(spec, sink=stream)
    plain.transport_batching = observed.transport_batching = batched
    want = plain.run(trace)
    observed.run(trace)
    got = stream.fold.result(spec)
    for name in ledger.FOLDED_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    if policy == "hawk" and not faulted:
        assert got.stealing.victims_probed == 153
        assert got.stealing.successful_rounds == 75
        assert got.events_fired == 1380
        assert len(got.utilization) == 9
