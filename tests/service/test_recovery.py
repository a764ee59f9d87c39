"""Crash recovery: rehydration from the event store, kill -9 included.

The in-process tests drive :meth:`ServiceState.rehydrate` directly
against stores with interrupted runs; the subprocess test is the
integration proof — a real server killed with SIGKILL mid-run, restarted
on the same database, must finish the interrupted jobs and still pass
its own live-vs-replay equality check.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cluster.engine import KIND_SUBMITTED
from repro.schedulers.registry import RunSpec
from repro.service import models
from repro.service.api import ServiceState
from repro.service.event_store import EventStore
from repro.service.models import LifecycleEvent, canonical_json
from repro.service.replay import replay

TIME_SCALE = 200.0


def make_config(policy="sparrow"):
    return RunSpec(policy, n_workers=8, cutoff=0.1)


def interrupted_store(path, *, n_pending=3, n_tasks=2, with_tasks=True):
    """A store whose run died with ``n_pending`` jobs in flight."""
    store = EventStore(str(path))
    config = make_config()
    store.register_run(config, created_w=0.0)
    for job_id in range(n_pending):
        payload = {
            "tenant": "default",
            "num_tasks": n_tasks,
            "true_mean": 0.02,
            "estimate": 0.02,
            "task_seconds": 0.02 * n_tasks,
            "scheduled_class": "short",
            "true_class": "short",
            "recv": 0.0,
        }
        if with_tasks:
            payload["tasks"] = [0.02] * n_tasks
        store.append(
            LifecycleEvent(
                run_id=models.run_id(config),
                kind=KIND_SUBMITTED,
                vtime=0.001 * job_id,
                wtime=0.001 * job_id,
                job_id=job_id,
                payload=payload,
            )
        )
    store.flush()
    return store, config


def test_rehydrate_resumes_interrupted_jobs(tmp_path):
    store, config = interrupted_store(tmp_path / "events.db")
    run_id = models.run_id(config)
    state = ServiceState(store, time_scale=TIME_SCALE)
    summary = state.rehydrate()
    (resumed,) = summary["resumed"]
    assert resumed["run_id"] == run_id
    assert resumed["jobs_resumed"] == 3
    assert resumed["jobs_unrecoverable"] == 0
    assert summary["failed"] == []
    assert state.health()["rehydrated_runs"] == 1

    payload = state.run_result(run_id, drain=True, timeout=30.0)
    jobs = payload["result"]["jobs"]
    assert sorted(j["job_id"] for j in jobs) == [0, 1, 2]

    # The continued log folds cold to the same result the live bridge
    # reports — the crash left no divergence behind.
    live = state._live_bridge(run_id).result()
    assert replay(store, run_id).result(config) == live
    state.close(timeout=30.0)
    store.close()


def test_rehydrate_counts_the_log_before_the_bridge_runs(tmp_path, monkeypatch):
    """The summary counts the log as replayed, not a fold the resumed
    bridge has already advanced: here every resumed job finishes before
    ``_install`` returns, the worst case of that race."""
    store, config = interrupted_store(tmp_path / "events.db")
    state = ServiceState(store, time_scale=TIME_SCALE)
    install = state._install

    def install_and_drain(bridge):
        live = install(bridge)
        assert live.drain(timeout=30.0)
        return live

    monkeypatch.setattr(state, "_install", install_and_drain)
    (resumed,) = state.rehydrate()["resumed"]
    assert resumed["run_id"] == models.run_id(config)
    assert resumed["jobs_resumed"] == 3
    assert resumed["jobs_unrecoverable"] == 0
    assert resumed["jobs_already_done"] == 0
    state.close(timeout=30.0)
    store.close()


def test_rehydrate_is_idempotent_and_continues_job_ids(tmp_path):
    store, config = interrupted_store(tmp_path / "events.db")
    run_id = models.run_id(config)
    state = ServiceState(store, time_scale=TIME_SCALE)
    state.rehydrate()
    # A second pass finds the run live and leaves it alone.
    assert state.rehydrate()["resumed"] == []

    # New submissions allocate ids past everything the log has seen.
    response = state.submit(
        {
            "policy": config.scheduler,
            "n_workers": config.n_workers,
            "cutoff": config.cutoff,
            "tasks": [0.02, 0.02],
        }
    )
    assert response["run_id"] == run_id
    assert response["job_id"] == 3

    payload = state.run_result(run_id, drain=True, timeout=30.0)
    assert len(payload["result"]["jobs"]) == 4
    state.close(timeout=30.0)
    store.close()


def test_rehydrate_skips_pre_upgrade_submissions(tmp_path):
    """Pending events without task durations cannot re-run; they must
    not wedge the bridge's completion accounting."""
    store, config = interrupted_store(
        tmp_path / "events.db", n_pending=2, with_tasks=False
    )
    state = ServiceState(store, time_scale=TIME_SCALE)
    summary = state.rehydrate()
    # Nothing recoverable -> the run is left cold rather than resumed
    # with zero jobs, or resumed with unrecoverable ones uncounted.
    if summary["resumed"]:
        (resumed,) = summary["resumed"]
        assert resumed["jobs_resumed"] == 0
        assert resumed["jobs_unrecoverable"] == 2
        payload = state.run_result(
            models.run_id(config), drain=True, timeout=5.0
        )
        assert payload["result"]["jobs"] == []
    state.close(timeout=10.0)
    store.close()


def test_rehydrate_completed_run_stays_cold(tmp_path):
    store = EventStore(str(tmp_path / "events.db"))
    state = ServiceState(store, time_scale=TIME_SCALE)
    response = state.submit(
        {"policy": "sparrow", "n_workers": 8, "cutoff": 0.1, "tasks": [0.02]}
    )
    run_id = response["run_id"]
    state.run_result(run_id, drain=True, timeout=30.0)
    state.close(timeout=30.0)

    fresh = ServiceState(store, time_scale=TIME_SCALE)
    assert fresh.rehydrate()["resumed"] == []
    # Historical result still served from the log alone.
    payload = fresh.run_result(run_id)
    assert len(payload["result"]["jobs"]) == 1
    fresh.close(timeout=10.0)
    store.close()


# -- the real thing: SIGKILL a serving process -------------------------------
def _http(port, method, path, payload=None, timeout=30):
    body = canonical_json(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _start_server(db_path):
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--db",
            str(db_path),
            "--http-port",
            "0",
            "--socket-port",
            "0",
            "--time-scale",
            "20",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={"PYTHONPATH": src_dir, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    port = None
    startup_lines = []
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        startup_lines.append(line.strip())
        match = re.search(r"http on [\d.]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        process.kill()
        pytest.fail(f"server did not start: {startup_lines}")
    return process, port, startup_lines


@pytest.mark.slow
@pytest.mark.parametrize("policy", ["hawk", "sparrow"])
def test_kill9_restart_resumes_and_replay_matches(tmp_path, policy):
    db_path = tmp_path / "events.db"
    process, port, _ = _start_server(db_path)
    try:
        # A couple of fast jobs complete before the crash ...
        submission = {
            "policy": policy,
            "n_workers": 8,
            "cutoff": 1.0,
            "tasks": [0.1, 0.1],
        }
        status, payload = _http(port, "POST", "/jobs", submission)
        assert status == 202
        run_id = payload["run_id"]
        _http(port, "POST", f"/runs/{run_id}/drain")

        # ... then slow ones (60 virtual seconds = 3 wall seconds at
        # time scale 20) are still in flight when SIGKILL lands.
        slow = dict(submission, tasks=[60.0, 60.0])
        for _ in range(3):
            status, _ = _http(port, "POST", "/jobs", slow)
            assert status == 202
        # POST /jobs only enqueues to the bridge thread; wait until all
        # four jobs are injected, i.e. their submitted events appended.
        deadline = time.monotonic() + 30.0
        while True:
            _, detail = _http(port, "GET", f"/runs/{run_id}")
            if detail["stats"]["injected"] == 4:
                break
            assert time.monotonic() < deadline, detail
            time.sleep(0.02)
        # /healthz counts events, which flushes the store: the
        # submitted events are durably committed before the kill.
        _http(port, "GET", "/healthz")
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)

    # The log must show the interruption: submitted but not completed.
    store = EventStore(str(db_path))
    fold = replay(store, run_id)
    assert fold.jobs_in_flight == 3
    assert fold.jobs_completed == 1
    store.close()

    process, port, startup = _start_server(db_path)
    try:
        assert any("resumed run" in line for line in startup)
        status, payload = _http(
            port, "GET", f"/runs/{run_id}/result", timeout=60
        )
        assert status == 200 and payload["drained"]
        jobs = payload["result"]["jobs"]
        assert sorted(j["job_id"] for j in jobs) == [0, 1, 2, 3]

        # The resumed run's live fold equals a cold replay of the
        # (pre-crash + post-restart) log.
        status, payload = _http(port, "POST", f"/runs/{run_id}/replay-check")
        assert status == 200 and payload["match"] is True
        assert payload["live_jobs"] == payload["replayed_jobs"] == 4
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
