"""Async-to-simulation bridge: drive a registry policy in real time.

The simulator's engine (:class:`~repro.cluster.engine.ClusterEngine`) is
single-threaded and batch-oriented; the service is concurrent and
open-ended.  :class:`SchedulerBridge` joins the two with one background
thread per run that owns the engine outright:

* **Virtual time tracks the wall clock.**  The thread repeatedly
  advances ``sim.run(until=wall_elapsed * time_scale)``: a task with a
  200 ms duration *completes* 200 ms of wall time after it started
  (at ``time_scale=1``), but nothing ever sleeps per task — between
  events the thread blocks on the submission queue with a timeout sized
  by :attr:`~repro.core.simulation.Simulation.next_event_time`, so a
  100-worker virtual cluster costs one thread, not 100.
* **Submissions cross on a queue.**  :meth:`submit` (any thread)
  allocates the job id and enqueues; the bridge thread injects the job
  at virtual time ``max(wall_elapsed, sim.now)`` via
  :meth:`ClusterEngine.submit_job`, so every policy the registry can
  build — hawk, sparrow, split, plugins — serves unmodified.
* **Every transition is observed.**  :class:`ObservedEngine` hooks the
  engine's placement and worker state machine and emits one
  :class:`~repro.service.models.LifecycleEvent` per transition into the
  event store; the live result is *defined* as the same
  :class:`~repro.service.replay.RunFold` a cold replay performs, so the
  two cannot disagree.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import TYPE_CHECKING, Any, Protocol, Sequence

from repro.cluster import Cluster, ClusterEngine, EngineConfig
from repro.cluster.job import Job, classify
from repro.cluster.records import RunResult
from repro.cluster.task import Task
from repro.cluster.worker import ProbeEntry, QueueEntry, TaskEntry, Worker
from repro.core.errors import ConfigurationError
from repro.schedulers import registry
from repro.schedulers.stealing import WorkStealing
from repro.service.event_store import EventStore
from repro.service.models import (
    KIND_COMPLETED,
    KIND_PROBED,
    KIND_QUEUED,
    KIND_STARTED,
    KIND_STOLEN,
    KIND_SUBMITTED,
    KIND_TASK_COMPLETED,
    LifecycleEvent,
    RunConfig,
    Submission,
)
from repro.service.replay import RunFold
from repro.workloads.spec import JobSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.schedulers.base import SchedulerPolicy
    from repro.schedulers.frontend import ProbeFrontend


class EmitFn(Protocol):
    """Callback receiving one lifecycle transition from the engine."""

    def __call__(
        self,
        kind: str,
        vtime: float,
        *,
        job_id: int | None = None,
        task_index: int | None = None,
        worker_id: int | None = None,
        payload: dict[str, Any] | None = None,
    ) -> None: ...


def _entry_job_id(entry: QueueEntry) -> int:
    if isinstance(entry, TaskEntry):
        return entry.task.job.job_id
    assert isinstance(entry, ProbeEntry)
    return entry.job.job_id


class ObservedEngine(ClusterEngine):
    """A :class:`ClusterEngine` that narrates its state transitions.

    Every override delegates the actual transition to the base class and
    only *observes* — the schedule produced is bit-identical to an
    unobserved engine's (the tests hold it to that by comparing against
    a plain batch run).
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: "SchedulerPolicy",
        config: EngineConfig,
        stealing: "WorkStealing | None" = None,
        *,
        emit: EmitFn,
    ) -> None:
        super().__init__(cluster, scheduler, config, stealing=stealing)
        self._emit = emit
        self._completed_jobs: set[int] = set()
        # place_probes/place_tasks may fan out through their singular
        # counterparts; the depth guard keeps one group to one event.
        self._group_depth = 0

    # -- placement -------------------------------------------------------
    def place_probe(
        self, worker_id: int, job: Job, frontend: "ProbeFrontend"
    ) -> None:
        if self._group_depth == 0:
            self._emit(
                KIND_PROBED,
                self.sim.now,
                job_id=job.job_id,
                worker_id=worker_id,
                payload={"workers": 1},
            )
        super().place_probe(worker_id, job, frontend)

    def place_probes(
        self, worker_ids: Sequence[int], job: Job, frontend: "ProbeFrontend"
    ) -> None:
        self._emit(
            KIND_PROBED,
            self.sim.now,
            job_id=job.job_id,
            payload={"workers": len(worker_ids)},
        )
        self._group_depth += 1
        try:
            super().place_probes(worker_ids, job, frontend)
        finally:
            self._group_depth -= 1

    def place_task(self, worker_id: int, task: Task) -> None:
        if self._group_depth == 0:
            self._emit(
                KIND_QUEUED,
                self.sim.now,
                job_id=task.job.job_id,
                task_index=task.index,
                worker_id=worker_id,
                payload={"tasks": 1},
            )
        super().place_task(worker_id, task)

    def place_tasks(self, assignments: Sequence[tuple[int, Task]]) -> None:
        if assignments:
            self._emit(
                KIND_QUEUED,
                self.sim.now,
                job_id=assignments[0][1].job.job_id,
                payload={"tasks": len(assignments)},
            )
        self._group_depth += 1
        try:
            super().place_tasks(assignments)
        finally:
            self._group_depth -= 1

    # -- worker state machine --------------------------------------------
    def _start_task(self, worker: Worker, task: Task, entry: QueueEntry) -> None:
        super()._start_task(worker, task, entry)
        self._emit(
            KIND_STARTED,
            self.sim.now,
            job_id=task.job.job_id,
            task_index=task.index,
            worker_id=worker.worker_id,
            payload={"stolen": task.was_stolen},
        )

    def _task_finished(self, worker: Worker, task: Task) -> None:
        job = task.job
        self._emit(
            KIND_TASK_COMPLETED,
            self.sim.now,
            job_id=job.job_id,
            task_index=task.index,
            worker_id=worker.worker_id,
        )
        super()._task_finished(worker, task)
        if (
            job.completion_time is not None
            and job.job_id not in self._completed_jobs
        ):
            self._completed_jobs.add(job.job_id)
            self._emit(
                KIND_COMPLETED,
                job.completion_time,
                job_id=job.job_id,
                payload={
                    "stolen_tasks": job.stolen_tasks,
                    "retried_tasks": job.retried_tasks,
                },
            )

    # -- stealing --------------------------------------------------------
    def transfer_stolen_entries(
        self, victim: Worker, thief: Worker, start: int, stop: int
    ) -> int:
        jobs = sorted(
            {
                _entry_job_id(entry)
                for entry in itertools.islice(victim.queue, start, stop)
            }
        )
        count = super().transfer_stolen_entries(victim, thief, start, stop)
        self._emit(
            KIND_STOLEN,
            self.sim.now,
            worker_id=thief.worker_id,
            payload={
                "victim": victim.worker_id,
                "entries": count,
                "jobs": jobs,
            },
        )
        return count


def build_observed_engine(config: RunConfig, emit: EmitFn) -> ObservedEngine:
    """Registry-driven engine construction for one service run.

    Mirrors :func:`repro.schedulers.registry.build_engine` (partition
    only when the policy declares it, stealing configured from the
    ``steal_cap`` param) but instantiates the observed subclass.
    """
    entry = registry.policy_entry(config.policy)
    partition_fraction = (
        config.short_partition_fraction if entry.uses_partition else 0.0
    )
    cluster = Cluster(
        config.n_workers, short_partition_fraction=partition_fraction
    )
    scheduler = entry.builder(config.params)
    stealing = (
        WorkStealing(cap=config.params["steal_cap"])
        if entry.uses_stealing
        else None
    )
    engine_config = EngineConfig(cutoff=config.cutoff, seed=config.seed)
    return ObservedEngine(
        cluster, scheduler, engine_config, stealing=stealing, emit=emit
    )


class SchedulerBridge:
    """One live run: a background thread owning an observed engine."""

    #: Longest the bridge thread blocks waiting for submissions when the
    #: simulation has nothing imminent (seconds).
    IDLE_POLL = 0.05

    def __init__(
        self,
        config: RunConfig,
        store: EventStore,
        time_scale: float = 1.0,
        idle_poll: float = IDLE_POLL,
    ) -> None:
        if time_scale <= 0:
            raise ConfigurationError(
                f"time_scale must be positive, got {time_scale}"
            )
        if idle_poll <= 0:
            raise ConfigurationError(
                f"idle_poll must be positive, got {idle_poll}"
            )
        self.config = config
        self.run_id = config.run_id
        self.store = store
        self.time_scale = time_scale
        self.idle_poll = idle_poll
        self.engine = build_observed_engine(config, self._emit)
        self._queue: queue.SimpleQueue[
            tuple[int, Submission, float] | None
        ] = queue.SimpleQueue()
        self._mutex = threading.RLock()
        self._fold = RunFold()
        self._latencies: list[float] = []
        self._recv_w: dict[int, float] = {}
        self._next_job_id = 0
        self._submitted = 0
        self._injected = 0
        self._all_done = threading.Event()
        self._all_done.set()
        self._thread: threading.Thread | None = None
        self._t0 = 0.0
        store.register_run(config, created_w=time.time())

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
            return self._fold.result(self.config)

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
            return tuple(self._latencies)

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
            timeout = self.idle_poll
            next_v = sim.next_event_time
            if next_v is not None:
                wait_w = (next_v - now_v) / self.time_scale
                timeout = min(max(wait_w, 0.0), self.idle_poll)
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
        estimate = (
            submission.estimate
            if submission.estimate is not None
            else engine.estimate(spec)
        )
        payload: dict[str, Any] = {
            "tenant": submission.tenant,
            # Individual durations make the submission replayable: crash
            # recovery rebuilds the Submission from this event alone.
            "tasks": list(submission.tasks),
            "num_tasks": spec.num_tasks,
            "true_mean": spec.mean_task_duration,
            "estimate": estimate,
            "task_seconds": spec.task_seconds,
            "scheduled_class": classify(estimate, self.config.cutoff).value,
            "true_class": classify(
                spec.mean_task_duration, self.config.cutoff
            ).value,
            "recv": recv_w,
        }
        self._emit(KIND_SUBMITTED, vtime, job_id=job_id, payload=payload)
        engine.submit_job(spec, estimated_task_duration=estimate)
        with self._mutex:
            self._injected += 1

    def _emit(
        self,
        kind: str,
        vtime: float,
        *,
        job_id: int | None = None,
        task_index: int | None = None,
        worker_id: int | None = None,
        payload: dict[str, Any] | None = None,
    ) -> None:
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
        with self._mutex:
            self.store.append(event)
            self._fold.apply(event)
            if kind == KIND_SUBMITTED and job_id is not None:
                self._recv_w[job_id] = float(event.payload["recv"])
            elif kind == KIND_STARTED and job_id in self._recv_w:
                self._latencies.append(event.wtime - self._recv_w.pop(job_id))
