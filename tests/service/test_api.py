"""ServiceState lock scope: a submission to a live run never waits on SQLite.

The first two tests stall a commit on a :class:`threading.Event` and show
that a live-run submission returns while the commit is still stalled.
The outcome does not depend on timing: the stall is only released after
the submission returned, or by a safety timer that makes a blocked
submission fail the test instead of hanging it.  The third holds two
first submissions of one run inside bridge construction at once.  The
replay-check tests compare a live run with its stored log while jobs
keep arriving, and across a checkpoint that lands between the two reads.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.service.api import ServiceState
from repro.service.event_store import EventStore
from repro.service.replay import RunFold

SCALE = 200.0
#: Releases a stall that a blocked submission would otherwise hold
#: forever; only a failing test ever waits this long.
SAFETY_S = 10.0


class StallingStore(EventStore):
    """An event store whose commits block while :attr:`armed` is set,
    until :attr:`release` is; :attr:`stalled` reports a blocked commit.
    ``register_run`` meets :attr:`barrier` first when one is set."""

    def __init__(self, path, flush_every=256):
        super().__init__(path, flush_every=flush_every)
        self.armed = threading.Event()
        self.stalled = threading.Event()
        self.release = threading.Event()
        self.barrier = None

    def _commit(self):
        if self.armed.is_set():
            self.stalled.set()
            self.release.wait()
        super()._commit()

    def register_run(self, config, created_w):
        if self.barrier is not None:
            self.barrier.wait()
        super().register_run(config, created_w)


def job(policy="sparrow"):
    return {"policy": policy, "n_workers": 8, "cutoff": 0.1, "tasks": [0.02]}


@pytest.fixture
def stalling(tmp_path):
    store = StallingStore(str(tmp_path / "events.db"), flush_every=1)
    state = ServiceState(store, time_scale=SCALE)
    safety = threading.Timer(SAFETY_S, store.release.set)
    safety.start()
    yield store, state
    safety.cancel()
    store.release.set()
    assert state.close(timeout=30.0)
    store.close()


def test_live_submit_returns_while_a_commit_is_stalled(stalling):
    store, state = stalling
    run_id = state.submit(job())["run_id"]
    state.run_result(run_id, drain=True, timeout=30.0)

    store.armed.set()
    # The bridge thread injects this job and stalls committing its
    # ``submitted`` event (every append commits at flush_every=1).
    assert state.submit(job(), create=False)["job_id"] == 1
    assert store.stalled.wait(SAFETY_S)

    reply = state.submit(job(), create=False)
    assert not store.release.is_set()  # returned during the stall
    assert reply == {"run_id": run_id, "job_id": 2}

    store.release.set()
    result = state.run_result(run_id, drain=True, timeout=30.0)
    assert len(result["result"]["jobs"]) == 3


def test_live_submit_returns_while_another_run_is_created(stalling):
    store, state = stalling
    live_id = state.submit(job("sparrow"))["run_id"]
    state.run_result(live_id, drain=True, timeout=30.0)

    store.armed.set()
    created = {}
    creator = threading.Thread(
        target=lambda: created.update(state.submit(job("hawk")))
    )
    creator.start()
    # The hawk run's bridge stalls in its register_run commit.
    assert store.stalled.wait(SAFETY_S)

    assert state.submit(job("sparrow"), create=False) == {
        "run_id": live_id,
        "job_id": 1,
    }
    assert not store.release.is_set()  # returned during the stall
    # A submission to the run being created is not accepted inline.
    assert state.submit(job("hawk"), create=False) is None

    store.release.set()
    creator.join(30.0)
    assert not creator.is_alive()
    assert created["job_id"] == 0 and created["run_id"] != live_id
    assert {row["run_id"] for row in state.runs()["runs"]} == {
        live_id,
        created["run_id"],
    }


def test_racing_first_submits_share_one_bridge(tmp_path):
    store = StallingStore(str(tmp_path / "events.db"))
    state = ServiceState(store, time_scale=SCALE)
    # Both submitters must be building a bridge before either installs.
    store.barrier = threading.Barrier(2, timeout=SAFETY_S)
    replies = []
    submitters = [
        threading.Thread(target=lambda: replies.append(state.submit(job())))
        for _ in range(2)
    ]
    for thread in submitters:
        thread.start()
    for thread in submitters:
        thread.join(30.0)
        assert not thread.is_alive()
    assert len(replies) == 2
    assert len({reply["run_id"] for reply in replies}) == 1
    assert sorted(reply["job_id"] for reply in replies) == [0, 1]
    assert state.health()["live_runs"] == 1
    run_id = replies[0]["run_id"]
    result = state.run_result(run_id, drain=True, timeout=30.0)
    assert len(result["result"]["jobs"]) == 2
    assert state.close(timeout=30.0)
    store.close()



def test_concurrent_submits_keep_one_bridge_and_dense_job_ids(tmp_path):
    """Stress: threads race first and live submissions to two runs while
    the interpreter switches threads as often as it can."""
    store = EventStore(str(tmp_path / "events.db"))
    state = ServiceState(store, time_scale=SCALE)
    replies = []
    policies = ("sparrow", "hawk")

    def submit_many(policy):
        for _ in range(10):
            replies.append(state.submit(job(policy)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=submit_many, args=(policies[i % 2],))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert state.health()["live_runs"] == 2
    by_run = {}
    for reply in replies:
        by_run.setdefault(reply["run_id"], []).append(reply["job_id"])
    assert sorted(len(ids) for ids in by_run.values()) == [40, 40]
    for run_id, ids in by_run.items():
        assert sorted(ids) == list(range(40))
        result = state.run_result(run_id, drain=True, timeout=60.0)
        assert len(result["result"]["jobs"]) == 40
    assert state.close(timeout=30.0)
    store.close()


def test_replay_checks_during_live_traffic_all_match(tmp_path):
    """The bridge stores each event before it folds it, so a replay-check
    racing a stream of submissions must replay only what the live result
    has folded."""
    store = EventStore(str(tmp_path / "events.db"))
    state = ServiceState(store, time_scale=SCALE)
    run_id = state.submit(job())["run_id"]
    stop = threading.Event()

    def submit_every_half_ms():
        while not stop.wait(0.0005):
            state.submit(job())

    submitter = threading.Thread(target=submit_every_half_ms)
    submitter.start()
    checks = []
    try:
        deadline = time.monotonic() + 1.5
        while time.monotonic() < deadline:
            checks.append(state.replay_check(run_id))
    finally:
        stop.set()
        submitter.join(30.0)
    assert len(checks) >= 10
    assert [c for c in checks if not c["match"]] == []
    assert checks[-1]["live_jobs"] > checks[0]["live_jobs"]
    state.run_result(run_id, drain=True, timeout=30.0)
    assert state.replay_check(run_id)["match"]
    assert state.close(timeout=30.0)
    store.close()


def test_a_checkpoint_past_the_live_read_rereads_the_live_fold(tmp_path):
    """A checkpoint that compacts past the seq the live result was read
    at leaves no tail to stop at, so the check reads the live fold again
    instead of reporting a mismatch."""
    store = EventStore(str(tmp_path / "events.db"))
    state = ServiceState(store, time_scale=SCALE)
    run_id = state.submit(job())["run_id"]
    state.run_result(run_id, drain=True, timeout=30.0)
    bridge = state._live_bridge(run_id)
    result_at = bridge.result_at
    reads = []

    def result_then_checkpoint():
        read = result_at()
        if not reads:
            state.submit(job())
            assert bridge.drain(30.0)
            assert bridge.checkpoint(compact=True) > 0
        reads.append(read)
        return read

    bridge.result_at = result_then_checkpoint
    check = state.replay_check(run_id)
    assert len(reads) == 2 and reads[0][1] < reads[1][1]
    assert check["match"] and check["replayed_jobs"] == 2
    assert state.close(timeout=30.0)
    store.close()


def test_a_snapshot_ahead_of_an_idle_live_run_is_a_mismatch(tmp_path):
    """A stored snapshot past anything the live fold will reach (here a
    forged one) is reported as a mismatch, not waited out."""
    store = EventStore(str(tmp_path / "events.db"))
    state = ServiceState(store, time_scale=SCALE)
    run_id = state.submit(job())["run_id"]
    state.run_result(run_id, drain=True, timeout=30.0)
    store.save_snapshot(run_id, 100, RunFold(last_seq=100).to_state(), 0.0)
    checks = []
    checker = threading.Thread(
        target=lambda: checks.append(state.replay_check(run_id))
    )
    checker.start()
    checker.join(SAFETY_S)
    assert not checker.is_alive()
    assert checks[0]["match"] is False
    assert state.close(timeout=30.0)
    store.close()


def test_first_submit_to_a_fresh_server_loads_no_module(tmp_path):
    """A server's first job draws from numpy.random without importing it."""
    code = f"""
import sys
import repro.service.server
from repro.service.api import ServiceState
from repro.service.event_store import EventStore
store = EventStore({str(tmp_path / "events.db")!r})
state = ServiceState(store, time_scale={SCALE!r})
before = set(sys.modules)
state.submit({job()!r})
print(sorted(set(sys.modules) - before))
assert state.close(timeout=30.0)
store.close()
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
