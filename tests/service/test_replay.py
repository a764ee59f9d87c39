"""Replay fold: event streams back into simulator-shaped records."""

from __future__ import annotations

import json
import re

import pytest

from repro.cluster.engine import (
    KIND_COMPLETED,
    KIND_STARTED,
    KIND_STOLEN,
    KIND_SUBMITTED,
)
from repro.cluster.job import JobClass
from repro.core.errors import ConfigurationError
from repro.service.event_store import EventStore
from repro.service.models import LifecycleEvent, RunConfig
from repro.service.replay import (
    RunFold,
    export_ndjson,
    fold_events,
    load_ndjson,
    replay,
    replay_result,
)

RUN = "run-a"


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
    result = fold.result(RunConfig(policy="hawk"))
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
    config = RunConfig(policy="sparrow")
    assert resumed.result(config) == full.result(config)


def make_store(tmp_path, config, n_jobs=3):
    store = EventStore(str(tmp_path / "events.db"))
    store.register_run(config, created_w=0.0)
    for j in range(n_jobs):
        for event in job_events(
            j, seq0=0, submit_v=float(j), complete_v=float(j) + 5.0,
            run_id=config.run_id,
        ):
            store.append(event)
    return store


def test_replay_result_matches_direct_fold(tmp_path):
    config = RunConfig(policy="sparrow")
    store = make_store(tmp_path, config)
    result = replay_result(store, config.run_id)
    assert len(result.jobs) == 3
    assert [r.job_id for r in result.jobs] == [0, 1, 2]
    with pytest.raises(ConfigurationError, match="not registered"):
        replay_result(store, "nope")
    store.close()


def test_replay_from_snapshot_equals_full_replay(tmp_path):
    config = RunConfig(policy="sparrow")
    store = make_store(tmp_path, config, n_jobs=4)
    full = replay(store, config.run_id).result(config)
    # checkpoint after the first two jobs (6 events), then compact
    fold = RunFold()
    for event in list(store.events(config.run_id))[:6]:
        fold.apply(event)
    store.save_snapshot(
        config.run_id, upto_seq=fold.last_seq, state=fold.to_state(),
        created_w=0.0,
    )
    assert store.compact(config.run_id) == 6
    assert replay(store, config.run_id).result(config) == full
    store.close()


def test_replay_rejects_inconsistent_snapshot(tmp_path):
    config = RunConfig(policy="sparrow")
    store = make_store(tmp_path, config, n_jobs=1)
    fold = replay(store, config.run_id)
    store.save_snapshot(
        config.run_id, upto_seq=1, state=fold.to_state(), created_w=0.0
    )
    with pytest.raises(ConfigurationError, match="snapshot"):
        replay(store, config.run_id)
    store.close()


@pytest.mark.parametrize("name", ["log.ndjson", "log.ndjson.gz"])
def test_ndjson_export_load_round_trip(tmp_path, name):
    config = RunConfig(policy="hawk", n_workers=16)
    store = make_store(tmp_path, config)
    path = tmp_path / name
    count = export_ndjson(
        store,
        path,
        meta={"source": "test"},
        labels={config.run_id: {"multiple": 1.4}},
    )
    assert count == 9
    log = load_ndjson(path)
    assert log.meta == {"source": "test"}
    assert log.configs == {config.run_id: config}
    assert log.labels[config.run_id] == {"multiple": 1.4}
    results = log.results()
    assert results[config.run_id] == replay(store, config.run_id).result(config)
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


_EVENT = {"type": "event", "run_id": RUN, "kind": KIND_SUBMITTED, "vtime": 0.0}


@pytest.mark.parametrize(
    "line",
    [
        "{not json",
        "[1, 2]",
        json.dumps({"type": "run", "config": {"policy": "hawk"}}),
        json.dumps({**_EVENT, "job_id": 1, "vtime": "x"}),
        json.dumps(_EVENT),
    ],
    ids=["not-json", "json-list", "run-without-id", "bad-vtime", "no-job-id"],
)
def test_load_ndjson_malformed_line_is_a_typed_error(tmp_path, line):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"type":"meta"}\n' + line + "\n")
    with pytest.raises(ConfigurationError, match=f"{re.escape(str(path))}:2: "):
        load_ndjson(path)
