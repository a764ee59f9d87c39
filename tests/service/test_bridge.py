"""Scheduler bridge: live runs whose results equal a cold replay."""

from __future__ import annotations

import time

import pytest

from repro.cluster.records import job_record
from repro.core.errors import ConfigurationError
from repro.runtime import PrototypeCluster
from repro.schedulers.registry import RunSpec
from repro.service import models
from repro.service.event_store import EventStore
from repro.service.models import MAX_WORKERS, Submission
from repro.service.replay import replay
from repro.service.scheduler_bridge import SchedulerBridge

#: Virtual seconds per wall second: fast enough that a 20-job test run
#: drains in well under a second of wall time.
SCALE = 200.0


@pytest.fixture
def store(tmp_path):
    with EventStore(str(tmp_path / "events.db")) as s:
        yield s


def run_jobs(store, config, n_jobs=20, tasks=(0.02, 0.05, 0.03)):
    bridge = SchedulerBridge(config, store, time_scale=SCALE).start()
    try:
        for i in range(n_jobs):
            bridge.submit(Submission(tasks=tuple(tasks)))
        assert bridge.drain(timeout=30.0)
    finally:
        assert bridge.stop(timeout=30.0)
    return bridge


@pytest.mark.parametrize("policy", ["hawk", "sparrow", "sparrow-batch"])
def test_live_result_equals_cold_replay(store, policy, tmp_path):
    config = RunSpec(policy, n_workers=20, cutoff=0.1)
    bridge = run_jobs(store, config)
    live = bridge.result()
    cold = replay(store, models.run_id(config)).result(config)
    assert live == cold
    assert len(live.jobs) == 20
    assert [r.job_id for r in live.jobs] == list(range(20))
    assert all(r.completion_time >= r.submit_time for r in live.jobs)


def test_folded_records_carry_the_engines_own_jobs(store):
    """The ``submitted`` payload is read off the engine's ``Job``, so every
    submission-derived field of a folded record is that job's record."""
    config = RunSpec("hawk", n_workers=20, cutoff=0.1)
    bridge = SchedulerBridge(config, store, time_scale=SCALE)
    jobs = []
    submit_job = bridge.engine.submit_job

    def recording(spec, *args):
        jobs.append(submit_job(spec, *args))
        return jobs[-1]

    bridge.engine.submit_job = recording
    bridge.start()
    for i in range(12):
        bridge.submit(
            Submission(
                tasks=(0.02, 0.3)[: 1 + i % 2],
                estimate=0.05 * (1 + i) if i % 3 == 0 else None,
            )
        )
    assert bridge.drain(timeout=30.0)
    assert bridge.stop(timeout=30.0)
    fields = (
        "job_id", "submit_time", "num_tasks", "true_mean_task_duration",
        "estimated_task_duration", "task_seconds", "scheduled_class",
        "true_class",
    )

    def submitted(records):
        return sorted(tuple(getattr(r, f) for f in fields) for r in records)

    expected = submitted(map(job_record, jobs))
    assert len(expected) == 12
    assert submitted(bridge.result().jobs) == expected
    cold = replay(store, bridge.run_id).result(config)
    assert submitted(cold.jobs) == expected


def test_every_lifecycle_kind_is_persisted(store):
    # cutoff below the mean task duration: jobs are long, so hawk routes
    # them through the centralized path and the short partition steals.
    config = RunSpec(
        "hawk", n_workers=8, cutoff=0.01, short_partition_fraction=0.25
    )
    run_jobs(store, config, n_jobs=12, tasks=(0.05,) * 4)
    kinds = {e.kind for e in store.events(models.run_id(config))}
    assert {"submitted", "queued", "started", "task-completed", "completed"} \
        <= kinds


def test_submitted_events_carry_the_classification(store):
    config = RunSpec("sparrow", n_workers=8, cutoff=0.04)
    run_jobs(store, config, n_jobs=4, tasks=(0.06, 0.06))
    submitted = [
        e for e in store.events(models.run_id(config)) if e.kind == "submitted"
    ]
    assert len(submitted) == 4
    for event in submitted:
        assert event.payload["true_class"] == "long"
        assert event.payload["num_tasks"] == 2
        assert event.payload["recv"] >= 0.0


def test_submitted_payload_keeps_its_nine_keys(store):
    """The engine writes six fields, the bridge its three client fields;
    the stored payload is what the bridge alone used to write."""
    config = RunSpec("hawk", n_workers=8, cutoff=0.04)
    run_jobs(store, config, n_jobs=3, tasks=(0.06, 0.01))
    submitted = [
        e for e in store.events(models.run_id(config)) if e.kind == "submitted"
    ]
    assert len(submitted) == 3
    for event in submitted:
        assert sorted(event.payload) == [
            "estimate", "num_tasks", "recv", "scheduled_class", "task_seconds",
            "tasks", "tenant", "true_class", "true_mean",
        ]
        assert event.payload["tasks"] == [0.06, 0.01]
        assert event.payload["tenant"] == "default"


def test_client_estimate_overrides_the_engine_estimator(store):
    config = RunSpec("sparrow", n_workers=8, cutoff=0.04)
    bridge = SchedulerBridge(config, store, time_scale=SCALE).start()
    try:
        # true mean 0.02 (short) but the client claims 0.08 (long)
        bridge.submit(Submission(tasks=(0.02, 0.02), estimate=0.08))
        assert bridge.drain(timeout=30.0)
    finally:
        bridge.stop(timeout=30.0)
    (record,) = bridge.result().jobs
    assert record.estimated_task_duration == 0.08
    assert record.scheduled_class.value == "long"
    assert record.true_class.value == "short"


def test_checkpoint_and_compaction_preserve_replay(store):
    config = RunSpec("hawk", n_workers=20, cutoff=0.1)
    run_id = models.run_id(config)
    bridge = run_jobs(store, config)
    live = bridge.result()
    compacted = bridge.checkpoint(compact=True)
    assert compacted > 0
    assert store.event_count(run_id) == 0
    assert replay(store, run_id).result(config) == live


class SubmitDuringFlushStore(EventStore):
    """Submits one job from inside the bridge's first flush, then records
    whether ``drain(timeout=0)`` reports done at every event of that job.
    """

    def __init__(self, path):
        super().__init__(path)
        self.bridge = None
        self.extra_job = None
        self.drained_while_in_flight = []

    def flush(self):
        super().flush()
        if self.bridge is not None and self.extra_job is None:
            self.extra_job = self.bridge.submit(Submission(tasks=(0.05,)))

    def append(self, event):
        if event.job_id == self.extra_job:
            self.drained_while_in_flight.append(self.bridge.drain(timeout=0))
        return super().append(event)


def test_submit_during_the_all_done_flush_keeps_drain_waiting(tmp_path):
    """The bridge finds every job done and flushes; a submission landing
    inside that flush must keep ``drain`` waiting until the job completes.
    """
    with SubmitDuringFlushStore(str(tmp_path / "events.db")) as store:
        config = RunSpec("sparrow", n_workers=4, cutoff=0.1)
        bridge = SchedulerBridge(config, store, time_scale=SCALE)
        store.bridge = bridge
        bridge.start()
        assert bridge.stop(timeout=30.0)  # graceful: waits for the job
        assert store.extra_job == 0
        assert store.drained_while_in_flight  # every event of the job...
        assert not any(store.drained_while_in_flight)  # ...saw it undrained
        assert bridge.drain(timeout=0)
        assert bridge.stats()["completed"] == 1


@pytest.mark.parametrize("policy", ["hawk", "sparrow"])
def test_a_drained_bridge_waits_for_the_next_submission(store, policy):
    """With nothing pending, the bridge thread blocks on the submission
    queue instead of polling it."""
    config = RunSpec(policy, n_workers=20, cutoff=0.1)
    bridge = SchedulerBridge(config, store, time_scale=SCALE).start()
    try:
        for _ in range(10):
            bridge.submit(Submission(tasks=(0.02, 0.05, 0.03)))
        assert bridge.drain(timeout=30.0)
        assert bridge.engine.sim.next_event_time is None
        checks = []
        done = bridge._done

        def counted_done():
            checks.append(None)
            return done()

        bridge._done = counted_done
        time.sleep(1.0)
        # one loop iteration checks _done at most twice
        assert len(checks) <= 2
        bridge.submit(Submission(tasks=(0.02,)))
        assert bridge.drain(timeout=30.0)
    finally:
        assert bridge.stop(timeout=30.0)
    assert bridge.stats()["completed"] == 11


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_an_event_beyond_the_longest_queue_wait_keeps_the_bridge_alive(store):
    """At time_scale=1e-14 a 1e6 s task is due 1e20 wall seconds out, past
    ``threading.TIMEOUT_MAX``: the thread must keep waiting for (and
    injecting) submissions instead of dying on the queue's limit."""
    config = RunSpec("sparrow", n_workers=4, cutoff=0.1)
    bridge = SchedulerBridge(config, store, time_scale=1e-14).start()
    bridge.submit(Submission(tasks=(1e6,)))
    assert wait_until(lambda: bridge.stats()["injected"] == 1)
    time.sleep(0.1)  # let the thread settle into its wait
    bridge.submit(Submission(tasks=(0.5,)))
    assert wait_until(lambda: bridge.stats()["injected"] == 2)
    assert bridge._thread is not None and bridge._thread.is_alive()
    # Neither job can finish in wall time; the daemon thread stays behind.
    assert not bridge.stop(timeout=0.1)


def test_stop_without_start_is_a_noop(store):
    bridge = SchedulerBridge(RunSpec("sparrow", 4, 0.1), store)
    assert bridge.stop() is True


def test_stats_and_latencies(store):
    config = RunSpec("sparrow", n_workers=20, cutoff=0.1)
    bridge = run_jobs(store, config, n_jobs=10)
    stats = bridge.stats()
    assert stats == {
        "submitted": 10,
        "injected": 10,
        "completed": 10,
        "in_flight": 0,
    }
    latencies = bridge.latencies()
    assert len(latencies) == 10
    assert all(lat >= 0.0 for lat in latencies)


def test_two_configs_share_one_store_without_mixing(store):
    hawk = RunSpec("hawk", n_workers=20, cutoff=0.1)
    sparrow = RunSpec("sparrow", n_workers=20, cutoff=0.1)
    assert models.run_id(hawk) != models.run_id(sparrow)
    b1 = run_jobs(store, hawk, n_jobs=8)
    b2 = run_jobs(store, sparrow, n_jobs=8)
    assert b1.result() == replay(store, models.run_id(hawk)).result(hawk)
    assert b2.result() == replay(store, models.run_id(sparrow)).result(sparrow)
    assert len(store.run_configs()) == 2


def test_non_serving_policy_is_rejected(store):
    """Both online hosts refuse an offline policy with the same error."""
    spec = RunSpec("omniscient", 4, 0.1)
    errors = []
    for host in (PrototypeCluster, lambda s: SchedulerBridge(s, store)):
        with pytest.raises(ConfigurationError, match="serves_online") as e:
            host(spec)
        errors.append(str(e.value))
    assert errors[0] == errors[1]
    assert store.run_configs() == {}


def test_run_config_bounds_the_worker_count():
    # Every worker is built before the run's first job is answered.
    def parse(n_workers):
        return models.run_spec_from_json(
            {"policy": "sparrow", "n_workers": n_workers}
        )

    parse(MAX_WORKERS)
    for n_workers in (MAX_WORKERS + 1, 0):
        with pytest.raises(ConfigurationError, match="n_workers"):
            parse(n_workers)


def test_run_config_digest_is_content_addressed():
    a = models.run_spec_from_json({"policy": "hawk", "seed": 0})
    b = models.run_spec_from_json({"policy": "hawk", "seed": 0})
    c = models.run_spec_from_json({"policy": "hawk", "seed": 1})
    assert models.run_id(a) == models.run_id(b)
    assert models.run_id(a) != models.run_id(c)
    assert models.run_id(a).startswith("hawk-")


def test_submission_validation():
    with pytest.raises(ConfigurationError):
        Submission(tasks=())
    with pytest.raises(ConfigurationError):
        Submission(tasks=(-1.0,))
    with pytest.raises(ConfigurationError):
        Submission(tasks=(0.1,), estimate=float("nan"))
    with pytest.raises(ConfigurationError):
        Submission(tasks=(0.1,), tenant="")


def test_bridge_rejects_bad_knobs(store):
    config = models.run_spec_from_json({"policy": "sparrow"})
    with pytest.raises(ConfigurationError, match="time_scale"):
        SchedulerBridge(config, store, time_scale=0.0)
    bridge = SchedulerBridge(config, store)
    with pytest.raises(ConfigurationError, match="not started"):
        bridge.submit(Submission(tasks=(0.1,)))
