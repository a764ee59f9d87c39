"""Replay fold: event streams back into simulator-shaped records."""

from __future__ import annotations

import json
import re
import sqlite3
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.engine import (
    KIND_COMPLETED,
    KIND_PROBED,
    KIND_STARTED,
    KIND_STOLEN,
    KIND_SUBMITTED,
    KIND_TASK_COMPLETED,
)
from repro.cluster.job import JobClass
from repro.core.errors import ConfigurationError
from repro.service import models
from repro.service.event_store import EventStore
from repro.service.models import LifecycleEvent
from repro.service.replay import (
    RunFold,
    export_ndjson,
    fold_events,
    load_ndjson,
    replay,
)

RUN = "run-a"
FIXTURE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "fig16_17_events.ndjson.gz"
)


def submitted_payload(tasks=(2.0, 4.0), estimate=3.0, cutoff=100.0):
    mean = sum(tasks) / len(tasks)
    cls = JobClass.LONG if mean >= cutoff else JobClass.SHORT
    est_cls = JobClass.LONG if estimate >= cutoff else JobClass.SHORT
    return {
        "tenant": "default",
        "num_tasks": len(tasks),
        "true_mean": mean,
        "estimate": estimate,
        "task_seconds": sum(tasks),
        "scheduled_class": est_cls.value,
        "true_class": cls.value,
        "recv": 0.0,
    }


def job_events(job_id, seq0, submit_v=0.0, complete_v=5.0, run_id=RUN):
    return [
        LifecycleEvent(
            run_id=run_id,
            kind=KIND_SUBMITTED,
            vtime=submit_v,
            job_id=job_id,
            payload=submitted_payload(),
            seq=seq0,
        ),
        LifecycleEvent(
            run_id=run_id,
            kind=KIND_STARTED,
            vtime=submit_v + 0.5,
            job_id=job_id,
            task_index=0,
            worker_id=3,
            seq=seq0 + 1,
        ),
        LifecycleEvent(
            run_id=run_id,
            kind=KIND_COMPLETED,
            vtime=complete_v,
            job_id=job_id,
            payload={"stolen_tasks": 1},
            seq=seq0 + 2,
        ),
    ]


def test_fold_builds_a_record_from_submit_and_complete():
    fold = fold_events(job_events(0, seq0=1, submit_v=1.0, complete_v=7.0))
    assert fold.jobs_completed == 1
    assert fold.jobs_in_flight == 0
    (record,) = fold.records
    assert record.job_id == 0
    assert record.submit_time == 1.0
    assert record.completion_time == 7.0
    assert record.num_tasks == 2
    assert record.true_mean_task_duration == 3.0
    assert record.task_seconds == 6.0
    assert record.scheduled_class is JobClass.SHORT
    assert record.stolen_tasks == 1


def test_fold_tracks_stealing_and_clock():
    events = job_events(0, seq0=1, complete_v=9.0)
    events.append(
        LifecycleEvent(
            run_id=RUN,
            kind=KIND_STOLEN,
            vtime=4.0,
            worker_id=2,
            payload={"victim": 5, "entries": 3, "jobs": [0]},
            seq=4,
        )
    )
    fold = fold_events(events)
    assert fold.steal_transfers == 1
    assert fold.entries_stolen == 3
    assert fold.last_vtime == 9.0
    result = fold.result(models.run_spec_from_json({"policy": "hawk"}))
    assert result.stealing.entries_stolen == 3
    assert result.scheduler_name == "service-hawk"
    assert result.end_time == 9.0
    assert result.utilization == ()


def test_out_of_order_seq_raises():
    fold = RunFold()
    events = job_events(0, seq0=5)
    fold.apply(events[0])
    with pytest.raises(ConfigurationError, match="out of order"):
        fold.apply(events[0])


def test_completed_without_submitted_raises():
    fold = RunFold()
    with pytest.raises(ConfigurationError, match="without a submitted"):
        fold.apply(
            LifecycleEvent(
                run_id=RUN, kind=KIND_COMPLETED, vtime=1.0, job_id=9, seq=1
            )
        )


def test_state_round_trip_resumes_mid_stream():
    events = job_events(0, seq0=1) + job_events(1, seq0=4, complete_v=8.0)
    full = fold_events(events)
    half = fold_events(events[:4])  # job 1 still pending
    assert half.jobs_in_flight == 1
    state = json.loads(json.dumps(half.to_state()))  # through real JSON
    resumed = RunFold.from_state(state)
    for event in events[4:]:
        resumed.apply(event)
    config = models.run_spec_from_json({"policy": "sparrow"})
    assert resumed.result(config) == full.result(config)


def make_store(tmp_path, config, n_jobs=3):
    store = EventStore(str(tmp_path / "events.db"))
    store.register_run(config, created_w=0.0)
    for j in range(n_jobs):
        for event in job_events(
            j, seq0=0, submit_v=float(j), complete_v=float(j) + 5.0,
            run_id=models.run_id(config),
        ):
            store.append(event)
    return store


def test_replay_result_matches_direct_fold(tmp_path):
    config = models.run_spec_from_json({"policy": "sparrow"})
    store = make_store(tmp_path, config)
    result = replay(store, models.run_id(config)).result(config)
    assert len(result.jobs) == 3
    assert [r.job_id for r in result.jobs] == [0, 1, 2]
    store.close()


def test_replay_from_snapshot_equals_full_replay(tmp_path):
    config = models.run_spec_from_json({"policy": "sparrow"})
    run_id = models.run_id(config)
    store = make_store(tmp_path, config, n_jobs=4)
    full = replay(store, run_id).result(config)
    # checkpoint after the first two jobs (6 events), then compact
    fold = RunFold()
    for event in list(store.events(run_id))[:6]:
        fold.apply(event)
    store.save_snapshot(
        run_id, upto_seq=fold.last_seq, state=fold.to_state(),
        created_w=0.0,
    )
    assert store.compact(run_id) == 6
    assert replay(store, run_id).result(config) == full
    store.close()


def test_replay_rejects_inconsistent_snapshot(tmp_path):
    config = models.run_spec_from_json({"policy": "sparrow"})
    run_id = models.run_id(config)
    store = make_store(tmp_path, config, n_jobs=1)
    fold = replay(store, run_id)
    store.save_snapshot(
        run_id, upto_seq=1, state=fold.to_state(), created_w=0.0
    )
    with pytest.raises(ConfigurationError, match="snapshot"):
        replay(store, run_id)
    store.close()


@pytest.mark.parametrize("name", ["log.ndjson", "log.ndjson.gz"])
def test_ndjson_export_load_round_trip(tmp_path, name):
    config = models.run_spec_from_json({"policy": "hawk", "n_workers": 16})
    run_id = models.run_id(config)
    store = make_store(tmp_path, config)
    path = tmp_path / name
    count = export_ndjson(
        store,
        path,
        meta={"source": "test"},
        labels={run_id: {"multiple": 1.4}},
    )
    assert count == 9
    log = load_ndjson(path)
    assert log.meta == {"source": "test"}
    assert log.configs == {run_id: config}
    assert log.labels[run_id] == {"multiple": 1.4}
    results = log.results()
    assert results[run_id] == replay(store, run_id).result(config)
    store.close()


def test_load_ndjson_requires_runs(tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text('{"type":"meta"}\n')
    with pytest.raises(ConfigurationError, match="declares no runs"):
        load_ndjson(path)


def test_load_ndjson_rejects_unknown_line_type(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"type":"meta"}\n{"type":"mystery"}\n')
    with pytest.raises(ConfigurationError, match="unknown line type"):
        load_ndjson(path)


def test_load_ndjson_cut_short_is_a_typed_error(tmp_path):
    path = tmp_path / "cut.ndjson.gz"
    path.write_bytes(FIXTURE.read_bytes()[:2000])
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}: "):
        load_ndjson(path)


_EVENT = {"type": "event", "run_id": RUN, "kind": KIND_SUBMITTED, "vtime": 0.0}


@pytest.mark.parametrize(
    "line",
    [
        "{not json",
        "[1, 2]",
        json.dumps({"type": "run", "config": {"policy": "hawk"}}),
        json.dumps({**_EVENT, "job_id": 1, "vtime": "x"}),
        json.dumps(_EVENT),
        json.dumps({**_EVENT, "job_id": "a"}),
        json.dumps({**_EVENT, "job_id": 1, "worker_id": True}),
        json.dumps({**_EVENT, "job_id": 1, "task_index": 0.0}),
    ],
    ids=[
        "not-json", "json-list", "run-without-id", "bad-vtime", "no-job-id",
        "string-job-id", "bool-worker-id", "float-task-index",
    ],
)
def test_load_ndjson_malformed_line_is_a_typed_error(tmp_path, line):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"type":"meta"}\n' + line + "\n")
    with pytest.raises(ConfigurationError, match=f"{re.escape(str(path))}:2: "):
        load_ndjson(path)


# -- the row fold (replay) equals the event fold (live bridge, NDJSON) ----
def assert_same_fold(got, want, config):
    assert got.result(config) == want.result(config)
    assert got.latencies == want.latencies
    assert got.to_state() == want.to_state()


def test_row_fold_equals_event_fold_on_the_committed_log(tmp_path):
    log = load_ndjson(FIXTURE)
    want = {run_id: RunFold() for run_id in log.configs}
    for event in log.events:
        want[event.run_id].apply(event)
    store = EventStore(str(tmp_path / "events.db"))
    for config in log.configs.values():
        store.register_run(config, created_w=0.0)
    # The fixture's seqs are dense from 1, so the store keeps every seq.
    assert [store.append(e) for e in log.events] == [
        e.seq for e in load_ndjson(FIXTURE).events
    ]
    for run_id, config in log.configs.items():
        got = replay(store, run_id)
        assert got.jobs_completed > 0 and got.latencies
        assert_same_fold(got, want[run_id], config)
    store.close()


@st.composite
def streams(draw):
    """One run's events, jobs interleaved, some jobs still in flight."""
    lanes = []
    for job_id in range(draw(st.integers(1, 5))):
        payload = {**submitted_payload(), "recv": draw(st.floats(0, 1))}
        lane = [(KIND_SUBMITTED, job_id, None, payload)]
        workers = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        lane.append((KIND_PROBED, job_id, None, {"workers": workers}))
        for task in range(draw(st.integers(1, 2))):
            lane.append((KIND_STARTED, job_id, task, {"stolen": False}))
            lane.append((KIND_TASK_COMPLETED, job_id, task, {}))
        if draw(st.booleans()):
            lane.append((KIND_COMPLETED, job_id, None, {"stolen_tasks": 1}))
        lanes.append(lane)
    for entries in draw(st.lists(st.integers(1, 3), max_size=2)):
        lanes.append([(KIND_STOLEN, None, None, {"entries": entries})])
    slots = [i for i, lane in enumerate(lanes) for _ in lane]
    order = draw(st.permutations(slots))
    cursors = [iter(lane) for lane in lanes]
    events = []
    for lane in order:
        kind, job_id, task, payload = next(cursors[lane])
        events.append(
            LifecycleEvent(
                run_id=RUN, kind=kind, job_id=job_id, task_index=task,
                vtime=draw(st.floats(0, 100)), wtime=draw(st.floats(1, 2)),
                payload=payload,
            )
        )
    return events


@settings(max_examples=60, deadline=None)
@given(events=streams(), data=st.data())
def test_replay_after_checkpoint_equals_the_event_fold(events, data):
    config = models.run_spec_from_json({"policy": "sparrow"})
    store = EventStore(":memory:")
    for event in events:
        store.append(event)
        if data.draw(st.booleans()):  # another run's row between two
            store.append(
                LifecycleEvent(run_id="other", kind=KIND_PROBED, vtime=0.0)
            )
    cut = data.draw(st.integers(0, len(events)))
    want = fold_events(events)
    state = json.loads(json.dumps(fold_events(events[:cut]).to_state()))
    resumed = RunFold.from_state(state)
    if cut:
        store.save_snapshot(RUN, resumed.last_seq, state, created_w=0.0)
        assert store.compact(RUN) == cut
    for event in events[cut:]:
        resumed.apply(event)
    got = replay(store, RUN)
    assert_same_fold(got, resumed, config)
    assert got.result(config) == want.result(config)
    assert got.to_state() == want.to_state()
    store.close()


def job_with_probes(store, n_probes, probe_payload):
    """One job whose ``submitted`` is followed by ``n_probes`` probe rows."""
    submitted, started, completed = job_events(0, seq0=0)
    store.append(submitted)
    for _ in range(n_probes):
        store.append(
            LifecycleEvent(
                run_id=RUN, kind=KIND_PROBED, vtime=0.1, job_id=0,
                payload=probe_payload,
            )
        )
    store.append(started)
    store.append(completed)


def test_replay_decodes_a_repeated_payload_once(tmp_path, monkeypatch):
    store = EventStore(str(tmp_path / "events.db"))
    job_with_probes(store, 50, {"workers": [1, 2]})
    text = '{"workers":[1,2]}'
    decoded = []
    loads = json.loads

    def counting(s, *args, **kwargs):
        decoded.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    fold = replay(store, RUN)
    monkeypatch.undo()
    assert fold.jobs_completed == 1 and fold.events_folded == 53
    assert decoded.count(text) == 1
    store.close()


def test_replay_of_a_corrupt_probe_payload_raises_json_error(tmp_path):
    path = tmp_path / "events.db"
    store = EventStore(str(path))
    job_with_probes(store, 3, {"workers": [1]})
    store.flush()
    with sqlite3.connect(path) as other:
        other.execute(
            "UPDATE events SET payload = '{\"workers\": [1' WHERE seq = 3"
        )
    with pytest.raises(json.JSONDecodeError):
        replay(store, RUN)
    store.close()


class CheckpointingStore(EventStore):
    """Runs :attr:`hook` on another thread right after the next snapshot
    read and lets it finish (within ``HOOK_S``) before the read goes on."""

    HOOK_S = 0.5
    hook = None

    def latest_snapshot(self, run_id):
        snapshot = super().latest_snapshot(run_id)
        hook, self.hook = self.hook, None
        if hook is not None:
            self.hooked = threading.Thread(target=hook)
            self.hooked.start()
            self.hooked.join(self.HOOK_S)
        return snapshot


def test_a_checkpoint_racing_a_replay_drops_no_jobs(tmp_path):
    config = models.run_spec_from_json({"policy": "sparrow"})
    run_id = models.run_id(config)
    store = CheckpointingStore(str(tmp_path / "events.db"))
    store.register_run(config, created_w=0.0)
    for j in range(4):
        for event in job_events(j, seq0=0, run_id=run_id):
            store.append(event)
    events = list(store.events(run_id))

    def checkpoint(n_events):
        fold = fold_events(events[:n_events])
        store.save_snapshot(run_id, fold.last_seq, fold.to_state(), 0.0)
        store.compact(run_id)

    checkpoint(3)  # after job 0
    # The next replay's snapshot read lets a checkpoint after job 2,
    # with compaction, run before the replay reads its tail.
    store.hook = lambda: checkpoint(9)
    got = replay(store, run_id).result(config)
    store.hooked.join(10.0)
    assert not store.hooked.is_alive()
    assert got == fold_events(events).result(config)
    assert replay(store, run_id).result(config) == got
    store.close()


def test_an_older_checkpoint_saved_late_keeps_the_newer_snapshot(tmp_path):
    # Two checkpoints on separate threads: the newer one (after job 2)
    # saves and compacts first, then the older one (after job 0) saves.
    config = models.run_spec_from_json({"policy": "sparrow"})
    run_id = models.run_id(config)
    store = EventStore(str(tmp_path / "events.db"))
    store.register_run(config, created_w=0.0)
    for j in range(4):
        for event in job_events(j, seq0=0, run_id=run_id):
            store.append(event)
    events = list(store.events(run_id))
    older, newer = fold_events(events[:3]), fold_events(events[:9])
    store.save_snapshot(run_id, newer.last_seq, newer.to_state(), 0.0)
    assert store.compact(run_id) == 9
    store.save_snapshot(run_id, older.last_seq, older.to_state(), 0.0)
    got = replay(store, run_id)
    assert got.result(config) == fold_events(events).result(config)
    assert got.jobs_completed == 4
    assert store.latest_snapshot(run_id)[0] == newer.last_seq
    store.close()
