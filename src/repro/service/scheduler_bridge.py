"""Async-to-simulation bridge: drive a registry policy in real time.

The simulator's engine (:class:`~repro.cluster.engine.ClusterEngine`) is
single-threaded and batch-oriented; the service is concurrent and
open-ended.  :class:`SchedulerBridge` joins the two with one background
thread per run that owns the engine outright:

* **Virtual time tracks the wall clock.**  The thread repeatedly
  advances ``sim.run(until=wall_elapsed * time_scale)``: a task with a
  200 ms duration *completes* 200 ms of wall time after it started
  (at ``time_scale=1``), but nothing ever sleeps per task — between
  events the thread blocks on the submission queue until
  :attr:`~repro.core.simulation.Simulation.next_event_time` is due, or
  until the next submission when no event is pending, so a 100-worker
  virtual cluster costs one thread, not 100, and an idle run costs none.
* **Submissions cross on a queue.**  :meth:`submit` (any thread)
  allocates the job id and enqueues; the bridge thread injects the job
  at virtual time ``max(wall_elapsed, sim.now)`` via
  :meth:`ClusterEngine.submit_job`, so every policy the registry can
  build — hawk, sparrow, split, plugins — serves unmodified.
* **Every transition is observed.**  The bridge builds its engine with
  :func:`repro.schedulers.registry.build_engine`, passing
  :meth:`SchedulerBridge._emit` as the engine's lifecycle sink: the
  engine reports each placement, task start, task completion, job
  completion and steal transfer itself (see :mod:`repro.cluster.engine`),
  and the bridge adds only ``submitted``.  Each becomes one
  :class:`~repro.service.models.LifecycleEvent` in the event store; the
  live result is *defined* as the same
  :class:`~repro.service.replay.RunFold` a cold replay performs, so the
  two cannot disagree.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any

from repro.cluster.engine import KIND_SUBMITTED
from repro.cluster.records import RunResult
from repro.core.errors import ConfigurationError
from repro.schedulers import registry
from repro.schedulers.registry import RunSpec
from repro.service.event_store import EventStore
from repro.service.models import LifecycleEvent, Submission, run_id
from repro.service.replay import RunFold
from repro.workloads.spec import JobSpec


class SchedulerBridge:
    """One live run: a background thread owning a narrating engine."""

    def __init__(
        self,
        spec: RunSpec,
        store: EventStore,
        time_scale: float = 1.0,
    ) -> None:
        registry.online_entry(spec.scheduler)
        if time_scale <= 0:
            raise ConfigurationError(
                f"time_scale must be positive, got {time_scale}"
            )
        self.spec = spec
        self.run_id = run_id(spec)
        self.store = store
        self.time_scale = time_scale
        self.engine = registry.build_engine(spec, sink=self._emit)
        self._queue: queue.SimpleQueue[
            tuple[int, Submission, float] | None
        ] = queue.SimpleQueue()
        self._mutex = threading.RLock()
        self._fold = RunFold()
        self._next_job_id = 0
        self._submitted = 0
        self._injected = 0
        self._all_done = threading.Event()
        self._all_done.set()
        self._thread: threading.Thread | None = None
        self._t0 = 0.0
        store.register_run(spec, created_w=time.time())

    # -- crash recovery ---------------------------------------------------
    def resume_from(self, fold: RunFold) -> int:
        """Adopt a replayed fold and queue its in-flight jobs again.

        Called before :meth:`start` when the service rehydrates a run
        from the event store after a crash.  The bridge continues the
        run's existing log: completed jobs keep their replayed records,
        and every pending job whose ``submitted`` event carried its task
        durations is re-submitted under its *original* job id — the
        fresh ``submitted`` event supersedes the interrupted one in the
        fold, so the live result and a cold replay of the log still
        agree by construction.  New job ids continue past everything the
        log has seen, keeping re-submission idempotent per job.  Pending
        jobs logged before task durations were recorded cannot be re-run
        and stay pending (they do not count toward completion).
        Returns the number of jobs queued for re-submission.
        """
        if self._thread is not None:
            raise ConfigurationError(
                f"bridge for run {self.run_id} already started; resume "
                "must happen before start"
            )
        resubmit: list[tuple[int, Submission]] = []
        max_job_id = -1
        for record in fold.records:
            max_job_id = max(max_job_id, record.job_id)
        for job_id, (_, payload) in sorted(fold.pending.items()):
            max_job_id = max(max_job_id, job_id)
            tasks = payload.get("tasks")
            if not tasks:
                continue
            estimate = payload.get("estimate")
            resubmit.append(
                (
                    job_id,
                    Submission(
                        tasks=tuple(float(d) for d in tasks),
                        tenant=str(payload.get("tenant", "default")),
                        estimate=(
                            float(estimate) if estimate is not None else None
                        ),
                    ),
                )
            )
        with self._mutex:
            self._fold = fold
            self._next_job_id = max_job_id + 1
            self._injected = fold.jobs_completed
            self._submitted = fold.jobs_completed + len(resubmit)
            if resubmit:
                self._all_done.clear()
        for job_id, submission in resubmit:
            self._queue.put((job_id, submission, 0.0))
        return len(resubmit)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "SchedulerBridge":
        if self._thread is not None:
            raise ConfigurationError(
                f"bridge for run {self.run_id} already started"
            )
        self._t0 = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name=f"bridge-{self.run_id}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float | None = None) -> bool:
        """Finish in-flight jobs, flush the store, join the thread.

        Graceful by construction: the thread only exits once every
        submitted job has completed.  Returns ``False`` if the join
        timed out (the daemon thread keeps draining in the background).
        """
        thread = self._thread
        if thread is None:
            return True
        self._queue.put(None)
        thread.join(timeout)
        return not thread.is_alive()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted job has completed (or timeout)."""
        return self._all_done.wait(timeout)

    # -- submission (any thread) -----------------------------------------
    def submit(self, submission: Submission) -> int:
        """Enqueue one job; returns its run-scoped job id immediately."""
        if self._thread is None:
            raise ConfigurationError(
                f"bridge for run {self.run_id} is not started"
            )
        recv_w = self._wall()
        with self._mutex:
            job_id = self._next_job_id
            self._next_job_id += 1
            self._submitted += 1
            self._all_done.clear()
        self._queue.put((job_id, submission, recv_w))
        return job_id

    # -- results (any thread) --------------------------------------------
    def result(self) -> RunResult:
        """Point-in-time result folded from the events emitted so far."""
        with self._mutex:
            return self._fold.result(self.spec)

    def stats(self) -> dict[str, int]:
        with self._mutex:
            return {
                "submitted": self._submitted,
                "injected": self._injected,
                "completed": self._fold.jobs_completed,
                "in_flight": self._submitted - self._fold.jobs_completed,
            }

    def latencies(self) -> tuple[float, ...]:
        """Per-job scheduling latencies (submit receipt → first task start,
        wall seconds), in completion-of-start order."""
        with self._mutex:
            return tuple(self._fold.latencies)

    def checkpoint(self, compact: bool = False) -> int:
        """Snapshot the fold into the store; optionally drop covered events.

        Returns the number of events compacted away (0 without
        ``compact``).
        """
        with self._mutex:
            state = self._fold.to_state()
            upto_seq = self._fold.last_seq
        self.store.save_snapshot(
            self.run_id, upto_seq, state, created_w=time.time()
        )
        return self.store.compact(self.run_id) if compact else 0

    # -- bridge thread ---------------------------------------------------
    def _wall(self) -> float:
        return time.monotonic() - self._t0

    def _done(self) -> bool:
        """Every submitted job injected and completed."""
        with self._mutex:
            return (
                self._injected == self._submitted
                and self._fold.jobs_completed == self._submitted
            )

    def _run(self) -> None:
        engine = self.engine
        sim = engine.sim
        stopping = False
        while True:
            now_v = self._wall() * self.time_scale
            if now_v > sim.now:
                sim.run(until=now_v)
            if self._done():
                self.store.flush()
                # A submit() during the flush clears the event under the
                # mutex; re-check under it so the set cannot undo that.
                with self._mutex:
                    done = self._done()
                    if done:
                        self._all_done.set()
                if done and stopping:
                    return
            next_v = sim.next_event_time
            timeout: float | None = None
            if next_v is not None:
                # The queue rejects waits past TIMEOUT_MAX: a far-off event
                # at a small time_scale wakes the thread early instead.
                wait_w = next_v / self.time_scale - self._wall()
                timeout = min(max(wait_w, 0.0), threading.TIMEOUT_MAX)
            try:
                item = self._queue.get(timeout=timeout)
            except queue.Empty:
                continue
            batch = [item]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            for entry in batch:
                if entry is None:
                    stopping = True
                else:
                    self._inject(*entry)

    def _inject(self, job_id: int, submission: Submission, recv_w: float) -> None:
        engine = self.engine
        vtime = max(self._wall() * self.time_scale, engine.sim.now)
        spec = JobSpec(
            job_id=job_id, submit_time=vtime, task_durations=submission.tasks
        )
        job = engine.submit_job(spec, estimated_task_duration=submission.estimate)
        payload: dict[str, Any] = {
            "tenant": submission.tenant,
            # Individual durations make the submission replayable: crash
            # recovery rebuilds the Submission from this event alone.
            "tasks": list(submission.tasks),
            "num_tasks": job.num_tasks,
            "true_mean": job.true_mean_task_duration,
            "estimate": job.estimated_task_duration,
            "task_seconds": job.task_seconds,
            "scheduled_class": job.scheduled_class.value,
            "true_class": job.true_class.value,
            "recv": recv_w,
        }
        # submit_job emits nothing, so ``submitted`` still precedes the
        # job's first engine event in the store.
        self._emit(KIND_SUBMITTED, vtime, job_id, payload=payload)
        with self._mutex:
            self._injected += 1

    def _emit(
        self,
        kind: str,
        vtime: float,
        job_id: int | None = None,
        task_index: int | None = None,
        worker_id: int | None = None,
        payload: dict[str, Any] | None = None,
    ) -> None:
        """The engine's lifecycle sink: persist one event and fold it.

        Only the bridge thread emits, so events reach the fold in the
        order the store numbered them.  The append (an INSERT, and a
        commit every ``flush_every`` rows) runs outside ``_mutex``, which
        :meth:`submit` takes; :meth:`checkpoint` stays safe because its
        snapshot covers ``fold.last_seq``, never an appended event the
        fold has not applied yet.
        """
        event = LifecycleEvent(
            run_id=self.run_id,
            kind=kind,
            vtime=vtime,
            job_id=job_id,
            task_index=task_index,
            worker_id=worker_id,
            payload=payload or {},
            wtime=self._wall(),
        )
        self.store.append(event)
        with self._mutex:
            self._fold.apply(event)
