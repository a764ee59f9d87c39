"""Event-store durability: seq order, WAL crash recovery, compaction."""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.engine import KIND_COMPLETED, KIND_SUBMITTED
from repro.core.errors import ConfigurationError, ReproError, StoreUnavailable
from repro.service import models
from repro.service.event_store import EventStore
from repro.service.models import LifecycleEvent

REPO_ROOT = Path(__file__).resolve().parents[2]


def ev(run_id="run-a", kind=KIND_SUBMITTED, vtime=0.0, job_id=0, payload=None):
    return LifecycleEvent(
        run_id=run_id,
        kind=kind,
        vtime=vtime,
        job_id=job_id,
        payload=payload or {},
    )


@pytest.fixture
def store(tmp_path):
    with EventStore(str(tmp_path / "events.db"), flush_every=4) as s:
        yield s


def test_appends_assign_strictly_increasing_seqs(store):
    seqs = [store.append(ev(vtime=float(i), job_id=i)) for i in range(10)]
    assert seqs == list(range(1, 11))
    read = list(store.events())
    assert [e.seq for e in read] == seqs
    assert [e.job_id for e in read] == list(range(10))


def test_events_filter_by_run_and_after_seq(store):
    for i in range(6):
        store.append(ev(run_id="run-a" if i % 2 == 0 else "run-b", job_id=i))
    a_events = list(store.events("run-a"))
    assert [e.job_id for e in a_events] == [0, 2, 4]
    tail = list(store.events("run-a", after_seq=a_events[0].seq))
    assert [e.job_id for e in tail] == [2, 4]
    assert store.event_count() == 6
    assert store.event_count("run-b") == 3


def test_payload_round_trips_through_storage(store):
    payload = {"tenant": "t1", "nested": {"a": [1, 2]}, "pi": 3.5}
    store.append(ev(payload=payload))
    (read,) = store.events()
    assert read.payload == payload


def test_register_run_is_idempotent_and_round_trips_config(store):
    config = models.run_spec_from_json(
        {"policy": "hawk", "n_workers": 20, "seed": 7}
    )
    run_id = models.run_id(config)
    store.register_run(config, created_w=1.0)
    store.register_run(config, created_w=2.0)
    configs = store.run_configs()
    assert set(configs) == {run_id}
    assert configs[run_id] == config


def test_reopen_sees_flushed_events_and_continues_seq(tmp_path):
    path = str(tmp_path / "events.db")
    with EventStore(path, flush_every=4) as store:
        for i in range(5):
            store.append(ev(job_id=i))
    with EventStore(path) as reopened:
        assert reopened.event_count() == 5
        # AUTOINCREMENT: seqs never reuse values from a previous process.
        assert reopened.append(ev(job_id=5)) == 6


def test_flush_every_must_be_positive(tmp_path):
    with pytest.raises(ConfigurationError):
        EventStore(str(tmp_path / "x.db"), flush_every=0)


def test_crash_mid_write_loses_only_the_uncommitted_tail(tmp_path):
    """A hard crash (os._exit) keeps the committed prefix, whole rows only.

    The writer uses ``flush_every=4`` and appends 10 events, so commits
    land after rows 4 and 8; rows 9-10 sit in an open transaction when
    the process dies.  A fresh reader must see exactly rows 1..8.
    """
    db = tmp_path / "crash.db"
    script = (
        "import os, sys\n"
        "from repro.service.event_store import EventStore\n"
        "from repro.service.models import LifecycleEvent\n"
        "store = EventStore(sys.argv[1], flush_every=4)\n"
        "for i in range(10):\n"
        "    store.append(LifecycleEvent(\n"
        "        run_id='run-a', kind='submitted', vtime=float(i), job_id=i))\n"
        "os._exit(17)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(db)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 17, proc.stderr
    with EventStore(str(db)) as store:
        survivors = list(store.events())
        assert [e.seq for e in survivors] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert [e.job_id for e in survivors] == list(range(8))
        # the store keeps working after recovery
        store.append(ev(job_id=99))
        assert store.event_count() == 9


def test_snapshot_round_trip_and_compaction(store):
    for i in range(8):
        store.append(ev(job_id=i))
    assert store.compact("run-a") == 0  # no snapshot yet: never discards
    state = {"records": [], "last_seq": 5}
    store.save_snapshot("run-a", upto_seq=5, state=state, created_w=1.0)
    assert store.latest_snapshot("run-a") == (5, state)
    assert store.latest_snapshot("other") is None
    assert store.compact("run-a") == 5
    assert [e.seq for e in store.events("run-a")] == [6, 7, 8]


def test_compaction_leaves_other_runs_untouched(store):
    for i in range(4):
        store.append(ev(run_id="run-a", job_id=i))
    for i in range(4):
        store.append(ev(run_id="run-b", job_id=i))
    store.save_snapshot("run-a", upto_seq=8, state={}, created_w=0.0)
    store.compact("run-a")
    assert store.event_count("run-a") == 0
    assert store.event_count("run-b") == 4


def test_kinds_survive_storage(store):
    store.append(ev(kind=KIND_SUBMITTED))
    store.append(ev(kind=KIND_COMPLETED, payload={"stolen_tasks": 2}))
    kinds = [e.kind for e in store.events()]
    assert kinds == [KIND_SUBMITTED, KIND_COMPLETED]


# -- commit retry under lock contention ---------------------------------------
class FlakyConnection:
    """Wraps a real connection; fails the first N commits as locked."""

    def __init__(self, conn, failures, message="database is locked"):
        self._conn = conn
        self.failures = failures
        self.message = message
        self.commit_calls = 0

    def commit(self):
        self.commit_calls += 1
        if self.failures > 0:
            self.failures -= 1
            raise sqlite3.OperationalError(self.message)
        self._conn.commit()

    def __getattr__(self, name):
        return getattr(self._conn, name)


@pytest.fixture
def flaky_store(tmp_path):
    with EventStore(str(tmp_path / "flaky.db")) as s:
        s.commit_retries = 3
        s.commit_backoff = 0.001
        yield s


def test_transient_lock_is_retried_and_counted(flaky_store):
    flaky_store._conn = FlakyConnection(flaky_store._conn, failures=2)
    flaky_store.append(ev(job_id=0))
    flaky_store.flush()
    assert flaky_store._conn.commit_calls == 3  # 2 failures + 1 success
    assert flaky_store.stats()["commit_retries"] == 2
    assert flaky_store.event_count() == 1


def test_persistent_lock_raises_store_unavailable(flaky_store):
    flaky_store._conn = FlakyConnection(flaky_store._conn, failures=99)
    flaky_store.append(ev(job_id=0))
    with pytest.raises(StoreUnavailable) as excinfo:
        flaky_store.flush()
    assert "still locked after 3" in str(excinfo.value)
    assert isinstance(excinfo.value, ReproError)  # transports map it to 503
    assert flaky_store._conn.commit_calls == 3

    # The lock clearing later lets the same store finish the write.
    flaky_store._conn.failures = 0
    flaky_store.flush()
    assert flaky_store.event_count() == 1


def test_non_lock_errors_are_not_swallowed(flaky_store):
    flaky_store._conn = FlakyConnection(
        flaky_store._conn, failures=1, message="disk I/O error"
    )
    flaky_store.append(ev(job_id=0))
    with pytest.raises(sqlite3.OperationalError):
        flaky_store.flush()
    assert flaky_store._conn.commit_calls == 1  # no retry on foreign errors
