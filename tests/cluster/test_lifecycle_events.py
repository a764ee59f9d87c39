"""The engine's lifecycle stream: pinned digests and zero observer effect.

``ClusterEngine`` narrates its transitions (placement, task start,
task completion, job completion, steal transfers) to an optional sink.
The digests below pin the whole stream — kinds, order, virtual times,
ids and payloads — for every online policy family, with transport
batching on and off.  They were recorded from the service's original
subclass-based observer, so the engine-emitted stream is held to exactly
what the service has always logged: ``completed`` lands after the
finishing worker's next ``started``, and ``stolen`` after the thief's
starts.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random

import pytest

from repro.cluster.engine import (
    EVENT_KINDS,
    KIND_COMPLETED,
    KIND_STARTED,
    KIND_STOLEN,
)
from repro.experiments.config import RunSpec
from repro.schedulers.registry import build_engine, registered_names
from repro.workloads.spec import JobSpec, Trace

#: (events, digest) per registered policy; identical with batching on
#: and off.  The Hawk ablations and ``omniscient`` pin the engine's
#: listener checks: Hawk without stealing, and an ``on_task_finish``
#: inherited from a parent class.
PINNED = {
    "hawk": (699, "4f2e9d826cfc8a5c"),
    "hawk-no-centralized": (722, "80a5ccb184d6595e"),
    "hawk-no-partition": (642, "b1f3dcaa4408e749"),
    "hawk-no-stealing": (624, "7639dd4a18251db4"),
    "omniscient": (624, "9195f7b830fd1983"),
    "sparrow": (624, "3fa0eaa0b17dbdcf"),
    "sparrow-batch": (624, "d2cab0e72cb155fc"),
    "centralized": (624, "cc36454a4f6a06a9"),
    "split": (624, "649f3619bbc8ffac"),
}


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


def digest(events) -> str:
    return hashlib.sha256("\n".join(map(repr, events)).encode()).hexdigest()[:16]


def test_every_registered_policy_is_pinned():
    assert set(PINNED) == set(registered_names())


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("policy", sorted(PINNED))
def test_stream_matches_pinned_digest(policy, batched):
    events, _ = record_stream(policy, batched)
    assert (len(events), digest(events)) == PINNED[policy]
    assert {e[0] for e in events} <= set(EVENT_KINDS)


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


@pytest.mark.parametrize("policy", sorted(PINNED))
def test_sink_has_no_observer_effect(policy):
    trace = pin_trace()
    plain = build_engine(pin_spec(policy)).run(trace)
    _, observed = record_stream(policy, batched=True)
    assert observed == plain
    assert pickle.dumps(observed) == pickle.dumps(plain)
