"""Cold replay of stored rows equals the in-memory fold of the same events.

:func:`replay` decodes payload texts from SQLite (each non-``submitted``
text once) and folds the rows; :func:`fold_events` folds the events as
the live bridge does.  Hypothesis draws whole logs over all eight event
kinds, with payload texts repeated across rows and jobs and with or
without a snapshot, and holds the two paths to the same fold.  It then
corrupts one row and holds them to the same typed error, naming the
same seq; undecodable text exists only on the store path.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sqlite3
import tempfile
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.engine import (
    EVENT_KINDS,
    KIND_COMPLETED,
    KIND_PROBED,
    KIND_QUEUED,
    KIND_RUN_END,
    KIND_STARTED,
    KIND_STOLEN,
    KIND_SUBMITTED,
    KIND_TASK_COMPLETED,
)
from repro.core.errors import ConfigurationError
from repro.service.event_store import EventStore
from repro.service.models import LifecycleEvent
from repro.service.replay import RunFold, fold_events, replay

RUN = "run-a"


def submitted(recv, cls="short", tasks=2):
    return {
        "tenant": "default",
        "num_tasks": tasks,
        "true_mean": 0.5,
        "estimate": 0.25,
        "task_seconds": 0.5 * tasks,
        "scheduled_class": cls,
        "true_class": "long",
        "recv": recv,
    }


#: Small pools, so that equal payload texts recur across rows and jobs.
SUBMITTED = [submitted(0.0), submitted(0.25), submitted(0.0, "long", 1)]
COMPLETED = [{}, {"stolen_tasks": 1}, {"stolen_tasks": 0, "retried_tasks": 2}]

#: Corrupt payloads, each unreadable for at least one kind the step reads.
CORRUPT = [
    [], 7, "x", None, {},
    {"entries": "x"}, {"stolen_tasks": [1]}, {"utilization": 7},
    {**SUBMITTED[0], "scheduled_class": "medium"},
    {**SUBMITTED[0], "true_class": ["short"]},
]

#: Kinds whose events must name their job.
JOB_KINDS = (KIND_SUBMITTED, KIND_STARTED, KIND_COMPLETED)

#: An error's message names the seq of the event it failed on.
SEQ = re.compile(r" event seq (\d+) ")


@st.composite
def logs(draw):
    """One run's events: 1-40 jobs interleaved, some still in flight,
    some steals, and maybe a closing ``run-end``."""
    lanes = []
    for job_id in range(draw(st.integers(1, 40))):
        lane = [(KIND_SUBMITTED, job_id, dict(draw(st.sampled_from(SUBMITTED))))]
        if draw(st.booleans()):
            lane.append((KIND_PROBED, job_id, {"workers": draw(st.integers(1, 2))}))
        lane.append((KIND_QUEUED, job_id, {"tasks": 1}))
        for _ in range(draw(st.integers(0, 2))):
            lane.append((KIND_STARTED, job_id, {"stolen": draw(st.booleans())}))
            lane.append((KIND_TASK_COMPLETED, job_id, {}))
        if draw(st.booleans()):
            lane.append((KIND_COMPLETED, job_id, draw(st.sampled_from(COMPLETED))))
        lanes.append(lane)
    for entries in draw(st.lists(st.integers(1, 2), max_size=3)):
        lanes.append([(KIND_STOLEN, None, {"victim": 0, "entries": entries})])
    order = draw(st.permutations([i for i, lane in enumerate(lanes) for _ in lane]))
    cursors = [iter(lane) for lane in lanes]
    steps = [next(cursors[i]) for i in order]
    if draw(st.booleans()):
        run_end = {
            name: draw(st.integers(0, 50))
            for name in (
                "rounds", "successful_rounds", "victims_probed",
                "entries_stolen", "events_fired",
            )
        }
        run_end["utilization"] = [[draw(st.floats(0, 100)), 1, 4]]
        steps.append((KIND_RUN_END, None, run_end))
    times = st.floats(0, 100)
    return [
        LifecycleEvent(
            run_id=RUN, kind=kind, job_id=job_id, payload=payload,
            vtime=draw(times), wtime=draw(st.sampled_from([1.0, 1.5])),
        )
        for kind, job_id, payload in steps
    ]


def in_memory(events, cut):
    """The in-memory fold, resumed from the JSON state of the first
    ``cut`` events when a snapshot covers them (as the store keeps it)."""
    if not cut:
        return fold_events(events)
    state = json.loads(json.dumps(fold_events(events[:cut]).to_state()))
    fold = RunFold.from_state(state)
    for event in events[cut:]:
        fold.apply(event)
    return fold


def outcome(fold):
    """Every field of the fold ``fold()`` returns, or the error it raises
    (any type: a raw error escaping either path fails the test)."""
    try:
        got = fold()
    except Exception as exc:
        return type(exc), str(exc)
    return RunFold, {f.name: getattr(got, f.name) for f in dataclasses.fields(got)}


def corrupt(path, event, how, data):
    """Corrupt ``event``'s stored row, and the event itself alike unless
    ``how`` is undecodable text, which only a stored row can hold."""
    if how == "job_id":
        event.job_id = None
        sql, value = "UPDATE events SET job_id = ? WHERE seq = ?", None
    elif how == "payload":
        event.payload = data.draw(st.sampled_from(CORRUPT), label="payload")
        sql, value = "UPDATE events SET payload = ? WHERE seq = ?", json.dumps(event.payload)
    else:
        sql, value = "UPDATE events SET payload = ? WHERE seq = ?", '{"a": '
    with closing(sqlite3.connect(path)) as other:
        other.execute(sql, (value, event.seq))
        other.commit()


@settings(max_examples=60, deadline=None)
@given(events=logs(), data=st.data())
def test_cold_replay_equals_the_in_memory_fold(events, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "events.db")
        store = EventStore(path)
        try:
            for event in events:
                store.append(event)
                if data.draw(st.booleans()):  # another run's row between two
                    store.append(LifecycleEvent(run_id="b", kind=KIND_PROBED, vtime=0.0))
            cut = data.draw(st.integers(0, len(events)), label="snapshot covers")
            if cut:
                state = fold_events(events[:cut]).to_state()
                store.save_snapshot(RUN, events[cut - 1].seq, state, created_w=0.0)
                assert store.compact(RUN) == cut
            want = outcome(lambda: in_memory(events, cut))
            assert want[0] is RunFold
            assert outcome(lambda: replay(store, RUN)) == want
            if cut == len(events):
                return

            event = events[data.draw(st.integers(cut, len(events) - 1), label="row")]
            how = data.draw(st.sampled_from(["payload", "job_id", "text"]), label="how")
            store.flush()
            corrupt(path, event, how, data)
            if how == "text":
                with pytest.raises(ConfigurationError, match=f" seq {event.seq} ") as err:
                    replay(store, RUN)
                assert isinstance(err.value.__cause__, json.JSONDecodeError)
                return
            want = outcome(lambda: in_memory(events, cut))
            assert outcome(lambda: replay(store, RUN)) == want
            if how == "job_id" and event.kind in JOB_KINDS:
                no_job = f"{event.kind!r} event seq {event.seq} has no job_id"
                assert want == (ConfigurationError, no_job)
            elif want[0] is not RunFold:
                assert want[0] is ConfigurationError
                assert SEQ.search(want[1]), want[1]
        finally:
            store.close()


def test_the_log_strategy_covers_every_kind():
    kinds = set()

    @settings(max_examples=30, deadline=None, database=None)
    @given(events=logs())
    def collect(events):
        kinds.update(e.kind for e in events)

    collect()
    assert kinds == set(EVENT_KINDS)
