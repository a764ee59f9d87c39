"""The run engine: drives workers, the probe protocol and metrics.

All state transitions live here so the event ordering of a run is easy to
audit.  Scheduler policies (:mod:`repro.schedulers`) only decide *where*
probes and tasks go; the engine owns *when* things happen.

Protocol costs follow Section 4.1 of the paper: every message (probe
placement, task request, task response, task placement) pays one network
delay; scheduling decisions and stealing cost nothing.

Transport batching
------------------
With a constant network delay (the paper's setting), the ``2t`` probes of
one submission and the ``t`` placements of one centralized assignment all
arrive at the *same* timestamp, in scheduling order.  The engine therefore
ships each such group as one heap event and delivers the group in order on
arrival — observable behaviour (delivery order, timestamps, and the
logical ``events_fired`` count, maintained via
:meth:`~repro.core.simulation.Simulation.add_logical_events`) is identical
to per-message events, but the heap does one push/pop per group instead of
per message.  The probe request/response round trip is likewise fused into
a single event at ``now + 2 * delay`` on the constant-delay path; the
frontend's task hand-out order is preserved because every request leg
shifts by the same constant.  A fused round trip (``2 * delay`` out) or a
probe batch (``delay`` out) is usually due before everything pending, so
it waits in the simulation's one-entry next slot and skips the heap
altogether (see :mod:`repro.core.simulation`).  Setting
:attr:`ClusterEngine.transport_batching`
to ``False`` (or injecting message faults) restores per-message events —
runs must be bit-identical either way, and the test suite holds the
engine to that.

Lifecycle events
----------------
An engine built with a ``sink`` narrates every transition to it, one call
``sink(kind, vtime, job_id, task_index, worker_id, payload)`` each:
``submitted`` as :meth:`~ClusterEngine.submit_job` takes a job (so a
batch stream opens with every ``submitted``), ``probed``/``queued`` once
per placement group (so batched and per-message transport emit the same
stream), ``started`` after a task takes a slot, ``task-completed`` as a
task finishes, ``completed`` after a job's last task (once the finishing
worker has picked up its next entry), ``stolen`` after a steal transfer
(once the thief has started) and ``run-end`` as :meth:`~ClusterEngine.run`
ends.  A batch stream folds to its ``RunResult``
(:class:`~repro.service.replay.RunFold`); the service logs the stream.

Memory
------
A finished job releases its tasks: when its last task finishes the
engine empties ``job.tasks`` (the job keeps ``num_tasks`` and
``task_seconds``), which breaks the job <-> task reference cycle, so
reference counting frees a batch run's jobs and tasks as :meth:`run`
returns.  :meth:`run` keeps the cycle collector paused throughout
(:func:`~repro.core.simulation.collector_paused`): materialization, the
event loop and the result build allocate in bulk and build no cycles.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultInjector, FaultPlan
from repro.cluster.job import Job
from repro.cluster.records import (
    RunResult,
    StealingStats,
    UtilizationSample,
    job_record,
)
from repro.cluster.task import Task
from repro.cluster.worker import ProbeEntry, QueueEntry, TaskEntry, Worker, WorkerState
from repro.core.errors import ConfigurationError, SimulationError
from repro.core.simulation import Simulation, collector_paused

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.schedulers.base import SchedulerPolicy
    from repro.schedulers.frontend import ProbeFrontend
    from repro.schedulers.stealing import WorkStealing
    from repro.workloads.spec import JobSpec

_IDLE = WorkerState.IDLE
_BUSY = WorkerState.BUSY
_WAITING = WorkerState.WAITING
_DEAD = WorkerState.DEAD

#: One-way delay of every message.  Section 4.1: "Network delay is assumed
#: to be 0.5ms.  The scheduling decisions and the task stealing do not
#: incur additional costs."
NETWORK_DELAY_S = 0.0005
#: Simulated seconds between utilization samples (Section 2.3).
UTILIZATION_INTERVAL_S = 100.0

# -- lifecycle event kinds (see "Lifecycle events" above) ----------------
KIND_SUBMITTED = "submitted"
KIND_PROBED = "probed"
KIND_QUEUED = "queued"
KIND_STARTED = "started"
KIND_STOLEN = "stolen"
KIND_TASK_COMPLETED = "task-completed"
KIND_COMPLETED = "completed"
KIND_RUN_END = "run-end"

EVENT_KINDS: tuple[str, ...] = (
    KIND_SUBMITTED,
    KIND_PROBED,
    KIND_QUEUED,
    KIND_STARTED,
    KIND_STOLEN,
    KIND_TASK_COMPLETED,
    KIND_COMPLETED,
    KIND_RUN_END,
)

#: ``sink(kind, vtime, job_id, task_index, worker_id, payload)``; fields a
#: kind does not carry are ``None``.
LifecycleSink = Callable[
    [str, float, int | None, int | None, int | None, dict[str, Any] | None], None
]


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Run-wide knobs.

    ``cutoff`` is the long/short threshold in seconds (Section 3.3); it is
    engine-level because entry classes (used by stealing eligibility and
    reporting) depend on it even for baseline schedulers.  ``max_events``
    is a runaway guard.  The paper fixes the message delay and the
    utilization sampling period, so those are the module constants
    :data:`NETWORK_DELAY_S` and :data:`UTILIZATION_INTERVAL_S`.
    """

    cutoff: float
    seed: int = 0
    max_events: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cutoff) and self.cutoff > 0):
            raise ConfigurationError(
                f"cutoff must be positive and finite, got {self.cutoff}"
            )


def resolve_estimate(
    estimate: Callable[["JobSpec"], float] | None, seed: int
) -> Callable[["JobSpec"], float]:
    """A run's job-runtime estimator (the true mean task duration by default).

    Estimators exposing a ``seeded(run_seed)`` hook (e.g.
    UniformMisestimation) are specialized to the run's seed so seed
    replicas draw independent estimator noise.
    """
    estimate = estimate or (lambda spec: spec.mean_task_duration)
    seeded = getattr(estimate, "seeded", None)
    return seeded(seed) if callable(seeded) else estimate


class ClusterEngine:
    """Couples a :class:`Simulation`, a :class:`Cluster` and a policy."""

    #: Ship same-timestamp message groups as one heap event (see module
    #: docstring).  Tests flip it off to check batched and unbatched runs
    #: agree bit-for-bit.
    transport_batching = True

    def __init__(
        self,
        cluster: Cluster,
        scheduler: "SchedulerPolicy",
        config: EngineConfig,
        stealing: "WorkStealing | None" = None,
        estimate: Callable[["JobSpec"], float] | None = None,
        sink: LifecycleSink | None = None,
    ) -> None:
        from repro.schedulers.base import SchedulerPolicy  # import cycle

        self.cluster = cluster
        self.scheduler = scheduler
        self.config = config
        self.stealing = stealing
        #: The policy's ``on_task_finish``, or ``None`` when it keeps the
        #: base-class no-op (Sparrow-style policies never hear about
        #: finishes, so the completion path skips the call).
        self._on_task_finish = (
            scheduler.on_task_finish
            if type(scheduler).on_task_finish is not SchedulerPolicy.on_task_finish
            else None
        )
        self.estimate = resolve_estimate(estimate, config.seed)
        self.sim = Simulation()
        self._batch = self.transport_batching
        self._busy = 0
        self._jobs_total = 0
        self._jobs_done = 0
        self._done = False
        self._utilization: list[UtilizationSample] = []
        #: Fault-injection layer; ``None`` (the default) leaves every hot
        #: path on the historical no-fault code, byte-identical to before
        #: faults existed (asserted by tests/cluster/test_faults.py).
        self._faults: FaultInjector | None = None
        #: Lifecycle observer; ``None`` (batch runs) skips every emission.
        self._sink = sink
        #: True while an injected centralized-scheduler outage is active;
        #: policies with a centralized component consult this on submit.
        self.centralized_down = False
        scheduler.bind(self)
        if stealing is not None:
            stealing.bind(self)

    # ------------------------------------------------------------------
    # Properties used by policies.
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def all_jobs_done(self) -> bool:
        return self._done

    def _refresh_batching(self) -> None:
        self._batch = self.transport_batching and (
            self._faults is None or not self._faults.messages_active
        )

    # ------------------------------------------------------------------
    # Fault injection (see repro.cluster.faults).
    # ------------------------------------------------------------------
    def attach_faults(self, plan: FaultPlan) -> None:
        """Arm a :class:`FaultPlan` on this engine (before the run starts).

        An empty plan is a no-op; a non-empty one installs the injector
        whose hooks the delivery/start/finish paths consult.  Message
        faults force per-message transport (each message carries its own
        perturbation), which :meth:`_refresh_batching` accounts for.
        """
        if plan.is_empty:
            return
        if self.sim.events_fired or self.sim.now:
            raise SimulationError("faults must be attached before the run starts")
        self._faults = FaultInjector(plan, self)
        self._refresh_batching()

    def _msg_delay(self) -> float:
        """One message's network delay, plus any injected perturbation."""
        faults = self._faults
        if faults is not None:
            return faults.perturb_delay(NETWORK_DELAY_S)
        return NETWORK_DELAY_S

    # ------------------------------------------------------------------
    # Placement API (called by scheduler policies).
    # ------------------------------------------------------------------
    def _send(self, worker_id: int, entry: QueueEntry) -> None:
        """One message to ``worker_id`` (one possibly perturbed delay)."""
        self.sim.schedule(self._msg_delay(), self._deliver_entry, worker_id, entry)

    def place_probes(
        self, worker_ids: Sequence[int], job: Job, frontend: "ProbeFrontend"
    ) -> None:
        """Send one probe to each of ``worker_ids`` (one delay each).

        With a constant delay all probes arrive at the same timestamp in
        list order, so the group rides a single heap event.
        """
        sink = self._sink
        if sink is not None:
            sink(
                KIND_PROBED, self.sim.now, job.job_id, None, None,
                {"workers": len(worker_ids)},
            )
        if len(worker_ids) > 1 and self._batch:
            entries = [ProbeEntry(job, frontend) for _ in worker_ids]
            self.sim.schedule(NETWORK_DELAY_S, self._deliver_batch, worker_ids, entries)
        else:
            for worker_id in worker_ids:
                self._send(worker_id, ProbeEntry(job, frontend))

    def place_tasks(self, assignments: Sequence[tuple[int, Task]]) -> None:
        """Send ``(worker_id, task)`` pairs, one network delay each.

        With a constant delay a group (e.g. one centralized job
        assignment) arrives at one timestamp and rides a single heap
        event.
        """
        sink = self._sink
        if sink is not None and assignments:
            sink(
                KIND_QUEUED, self.sim.now, assignments[0][1].job.job_id, None,
                None, {"tasks": len(assignments)},
            )
        if len(assignments) > 1 and self._batch:
            worker_ids = [worker_id for worker_id, _ in assignments]
            entries = [TaskEntry(task) for _, task in assignments]
            self.sim.schedule(NETWORK_DELAY_S, self._deliver_batch, worker_ids, entries)
        else:
            for worker_id, task in assignments:
                self._send(worker_id, TaskEntry(task))

    # ------------------------------------------------------------------
    # Worker state machine.
    # ------------------------------------------------------------------
    def _sync_steal_hint(self, worker: Worker) -> None:
        """Keep the cluster's steal-hint tally current for this worker.

        Called after every queue or slot mutation.  A 0 -> 1 transition of
        the cluster tally wakes parked idle workers in the stealing policy.
        The tally's only consumer is the stealing policy, so callers skip
        the call entirely in runs without one.
        """
        if worker.in_short_partition:
            return
        # Inline of Worker.steal_hint() — this runs on every queue/slot
        # mutation of every general worker, where the call overhead alone
        # is measurable.  Kept in lockstep with the method (pinned by
        # tests/schedulers/test_stealing.py::
        # test_inlined_hint_sync_matches_worker_steal_hint).
        shorts = worker._short_seqs
        if not shorts:
            hint = False
        else:
            longs = worker._long_seqs
            if longs and shorts[-1] > longs[0]:
                hint = True
            else:
                entry = worker.current_entry
                hint = entry is not None and entry.is_long
        if hint == worker.counted_steal_hint:
            return
        worker.counted_steal_hint = hint
        cluster = self.cluster
        if hint:
            cluster.steal_flags[worker.worker_id] = 1
            cluster.steal_hint_count += 1
            if cluster.steal_hint_count == 1:
                stealing = self.stealing
                assert stealing is not None
                stealing.on_steal_work_appeared()
        else:
            cluster.steal_flags[worker.worker_id] = 0
            cluster.steal_hint_count -= 1

    def _deliver_batch(
        self, worker_ids: Sequence[int], entries: list[QueueEntry]
    ) -> None:
        """Deliver a same-timestamp message group in scheduling order.

        An idle worker takes its entry straight into the slot: the
        enqueue/pop pair the general path performs is unobservable when
        both halves happen inside the same delivery (no other event can
        see the transient queue state, and worker-local seqs only order
        entries that coexist in a queue).  Probes that land on idle
        workers all start their round trip at the same ``now + 2*delay``
        timestamp in delivery order, so the whole group's round trips
        ride one further heap event (see :meth:`_round_trip_batch`).
        """
        self.sim.add_logical_events(len(entries) - 1)
        workers = self.cluster.workers
        try_start = self._worker_try_start
        sync = self._sync_steal_hint if self.stealing is not None else None
        start_task = self._start_task
        faults = self._faults
        dead = faults.dead if faults is not None else None
        pairs: list[tuple[Worker, ProbeEntry]] | None = None
        for worker_id, entry in zip(worker_ids, entries):
            if dead is not None and dead[worker_id]:
                self._redirect_entry(entry)
                continue
            worker = workers[worker_id]
            if worker.state is _IDLE and not worker.queue:
                if entry.is_task:
                    start_task(worker, entry.task, entry)  # type: ignore[attr-defined]
                else:
                    worker.state = _WAITING
                    worker.current_entry = entry
                    if pairs is None:
                        pairs = [(worker, entry)]  # type: ignore[list-item]
                    else:
                        pairs.append((worker, entry))  # type: ignore[arg-type]
                continue
            worker.enqueue(entry)
            if worker.state is _IDLE:
                try_start(worker)
            elif sync is not None:
                sync(worker)
        if pairs is not None:
            self.sim.schedule_at(
                self.sim.now + NETWORK_DELAY_S + NETWORK_DELAY_S,
                self._round_trip_batch,
                pairs,
            )

    def _round_trip_batch(self, pairs: "list[tuple[Worker, ProbeEntry]]") -> None:
        """Fused round trips for one delivery batch's idle-worker probes.

        Each pair stands for two logical events (request leg + response
        leg) that the per-probe path would fire as separate heap events
        at this same timestamp, in this same order.
        """
        self.sim.add_logical_events(2 * len(pairs) - 1)
        respond = self._probe_response_arrives
        for worker, entry in pairs:
            respond(worker, entry, entry.frontend.next_task())

    def _redirect_entry(self, entry: QueueEntry, extra_delay: float = 0.0) -> None:
        """Re-send work a dead worker lost, or a message bound for one, to
        a live worker.

        Models the sender noticing the failed node and re-routing: the
        entry pays ``extra_delay`` (a crash's detection delay) plus one more
        (possibly perturbed) network delay.  Long entries stay in the
        general partition.  Every re-route of lost work goes through here:
        misdelivered messages, a crashed worker's running task and queue,
        and a task handed out to a probe whose worker crashed.
        """
        faults = self._faults
        assert faults is not None
        target = faults.pick_live_target(entry.is_long)
        self.sim.schedule(
            extra_delay + self._msg_delay(), self._deliver_entry, target, entry
        )

    def _deliver_entry(self, worker_id: int, entry: QueueEntry) -> None:
        faults = self._faults
        if faults is not None and faults.dead[worker_id]:
            self._redirect_entry(entry)
            return
        worker = self.cluster.workers[worker_id]
        if worker.state is _IDLE and not worker.queue:
            # Same fast path as batched delivery: straight into the slot.
            if entry.is_task:
                self._start_task(worker, entry.task, entry)  # type: ignore[attr-defined]
            else:
                self._begin_probe_wait(worker, entry)  # type: ignore[arg-type]
            return
        worker.enqueue(entry)
        if worker.state is _IDLE:
            self._worker_try_start(worker)
        elif self.stealing is not None:
            self._sync_steal_hint(worker)

    def _worker_try_start(self, worker: Worker) -> None:
        """Pop queue entries until the worker is busy, waiting, or drained."""
        queue = worker.queue
        pop_next = worker.pop_next
        while worker.state is _IDLE:
            if not queue:
                stealing = self.stealing
                if stealing is not None:
                    self._sync_steal_hint(worker)
                    if not self._done:
                        stealing.on_worker_idle(worker)
                return
            entry = pop_next()
            if entry.is_task:
                self._start_task(worker, entry.task, entry)
            else:
                self._begin_probe_wait(worker, entry)
                return

    def _begin_probe_wait(self, worker: Worker, entry: ProbeEntry) -> None:
        """Late binding: park the probe in the slot, ask for a task."""
        worker.state = _WAITING
        worker.current_entry = entry
        if self.stealing is not None:
            self._sync_steal_hint(worker)
        if self._batch:
            # Fused round trip: request leg + response leg in one
            # event at (now + delay) + delay — the same two
            # sequential additions the per-leg path performs, so
            # timestamps match bit-for-bit.  The hand-out order of
            # next_task() calls is unchanged — each request leg
            # shifts by the same constant delay, and seqs are
            # allocated here either way.
            self.sim.schedule_at(
                self.sim.now + NETWORK_DELAY_S + NETWORK_DELAY_S,
                self._probe_round_trip,
                worker,
                entry,
            )
        else:
            self.sim.schedule(
                self._msg_delay(), self._probe_request_arrives, worker, entry
            )

    def _probe_round_trip(self, worker: Worker, entry: ProbeEntry) -> None:
        """Fused request/response: both legs of the probe round trip."""
        self.sim.add_logical_events(1)
        self._probe_response_arrives(worker, entry, entry.frontend.next_task())

    def _probe_request_arrives(self, worker: Worker, entry: ProbeEntry) -> None:
        """The task request reached the scheduler; decide task-or-cancel."""
        task = entry.frontend.next_task()
        self.sim.schedule(
            self._msg_delay(), self._probe_response_arrives, worker, entry, task
        )

    def _probe_response_arrives(
        self, worker: Worker, entry: ProbeEntry, task: Task | None
    ) -> None:
        if worker.state is not _WAITING or worker.current_entry is not entry:
            if self._faults is not None:
                # The worker crashed (and possibly restarted) while this
                # round trip was in flight; a handed-out task is re-routed
                # to a live worker, a cancel is simply dropped.
                if task is not None:
                    self._redirect_entry(TaskEntry(task))
                return
            raise SimulationError(
                f"worker {worker.worker_id} received a stale probe response"
            )
        worker.state = _IDLE
        worker.current_entry = None
        if task is None:
            # Cancelled: all of the job's tasks were already handed out.
            self._worker_try_start(worker)
        else:
            if entry.stolen:
                task.mark_stolen()
            self._start_task(worker, task, entry)

    def _start_task(self, worker: Worker, task: Task, entry: QueueEntry) -> None:
        worker.state = _BUSY
        worker.current_entry = entry
        worker.current_task = task
        worker.steal_backoff = 0.0
        task.start(worker.worker_id)
        self._busy += 1
        if self.stealing is not None:
            self._sync_steal_hint(worker)
        faults = self._faults
        if faults is None:
            self.sim.schedule(task.duration, self._task_finished, worker, task)
        else:
            self.sim.schedule(
                task.duration * faults.slowdown[worker.worker_id],
                self._task_finished_checked,
                worker,
                task,
                task.attempt,
            )
        sink = self._sink
        if sink is not None:
            sink(
                KIND_STARTED, self.sim.now, task.job.job_id, task.index,
                worker.worker_id, {"stolen": task.was_stolen},
            )

    def _task_finished(self, worker: Worker, task: Task) -> None:
        now = self.sim.now
        job = task.job
        sink = self._sink
        if sink is not None:
            sink(
                KIND_TASK_COMPLETED, now, job.job_id, task.index,
                worker.worker_id, None,
            )
        task.finish()
        worker.state = _IDLE
        worker.current_entry = None
        worker.current_task = None
        worker.tasks_executed += 1
        self._busy -= 1
        on_task_finish = self._on_task_finish
        if on_task_finish is not None:
            on_task_finish(task)
        completed = job.record_task_finish(now)
        if completed:
            job.tasks.clear()  # breaks the job <-> task cycle ("Memory")
            self._jobs_done += 1
            if self._jobs_done == self._jobs_total:
                self._done = True
        self._worker_try_start(worker)
        if completed and sink is not None:
            sink(
                KIND_COMPLETED, now, job.job_id, None, None,
                {
                    "stolen_tasks": job.stolen_tasks,
                    "retried_tasks": job.retried_tasks,
                },
            )

    def _task_finished_checked(self, worker: Worker, task: Task, attempt: int) -> None:
        """Fault-mode completion: drop events from a pre-crash execution.

        When the worker crashed mid-task the task was re-queued (bumping
        ``task.attempt``) and the slot was cleared, so the completion event
        of the lost execution must be ignored, not double-counted.
        """
        if worker.current_task is not task or task.attempt != attempt:
            return
        self._task_finished(worker, task)

    # ------------------------------------------------------------------
    # Fault handlers (armed by FaultInjector.schedule()).
    # ------------------------------------------------------------------
    def _worker_crash(self, worker_id: int) -> None:
        """One worker dies: lose its slot, redistribute its queue.

        A running task is re-queued for re-execution on a live worker
        after ``detect_delay`` (plus one message delay for the dispatch);
        a waiting probe's reservation evaporates — its in-flight response
        is re-routed on arrival (:meth:`_probe_response_arrives`).  Queued
        entries are redirected to live workers, long entries staying in
        the general partition.
        """
        faults = self._faults
        assert faults is not None
        worker = self.cluster.workers[worker_id]
        faults.dead[worker_id] = 1
        faults.crashes += 1
        if self.stealing is not None:
            self.stealing.on_worker_dead(worker)
        if worker.state is _BUSY:
            task = worker.current_task
            assert task is not None
            self._busy -= 1
            faults.requeue_task(task)
            self._redirect_entry(TaskEntry(task), extra_delay=faults.detect_delay)
        worker.current_entry = None
        worker.current_task = None
        for queued in worker.remove_range(0, len(worker.queue)):
            self._redirect_entry(queued, extra_delay=faults.detect_delay)
        worker.state = _DEAD
        if self.stealing is not None:
            self._sync_steal_hint(worker)
        if faults.restart_delay > 0.0:
            self.sim.schedule(faults.restart_delay, self._worker_restart, worker_id)

    def _worker_restart(self, worker_id: int) -> None:
        """A crashed worker rejoins, empty and idle."""
        faults = self._faults
        assert faults is not None
        faults.dead[worker_id] = 0
        faults.restarts += 1
        worker = self.cluster.workers[worker_id]
        worker.state = _IDLE
        worker.steal_backoff = 0.0
        self._worker_try_start(worker)

    def _centralized_outage_begins(self) -> None:
        self.centralized_down = True

    def _centralized_outage_ends(self) -> None:
        self.centralized_down = False
        self.scheduler.on_centralized_restored()

    # ------------------------------------------------------------------
    # Work-stealing support (called by the stealing policy).
    # ------------------------------------------------------------------
    def transfer_stolen_entries(
        self, victim: Worker, thief: Worker, start: int, stop: int
    ) -> int:
        """Move ``victim.queue[start:stop]`` to the (idle) thief."""
        stolen = victim.remove_range(start, stop)
        for entry in stolen:
            entry.mark_stolen()
        victim.tasks_stolen_from += len(stolen)
        thief.tasks_stolen_by += len(stolen)
        self._sync_steal_hint(victim)
        thief.enqueue_front(stolen)
        self._sync_steal_hint(thief)
        self._worker_try_start(thief)
        sink = self._sink
        if sink is not None:
            jobs = sorted(
                {(e.task.job if e.is_task else e.job).job_id for e in stolen}
            )
            sink(
                KIND_STOLEN, self.sim.now, None, None, thief.worker_id,
                {"victim": victim.worker_id, "entries": len(stolen), "jobs": jobs},
            )
        return len(stolen)

    # ------------------------------------------------------------------
    # Utilization sampling.
    # ------------------------------------------------------------------
    def _sample_utilization(self) -> None:
        self._utilization.append(
            UtilizationSample(self.sim.now, self._busy, self.cluster.n_workers)
        )
        # Re-arm only while something else can still happen: a stuck run
        # must drain its heap so run() reports it instead of sampling an
        # idle cluster forever.
        if not self._done and self.sim.pending_events:
            self.sim.schedule(UTILIZATION_INTERVAL_S, self._sample_utilization)

    # ------------------------------------------------------------------
    # Job submission (batch runs and the long-running service).
    # ------------------------------------------------------------------
    def submit_job(
        self,
        spec: "JobSpec",
        estimated_task_duration: float | None = None,
        client: Mapping[str, Any] | None = None,
    ) -> Job:
        """Materialize one job and schedule its submission.

        This is the one way a job enters the engine: the batch entry
        point :meth:`run` submits a whole trace through it up front, and
        a long-running service feeds jobs through it one at a time as
        they arrive, with ``spec.submit_time`` already expressed on the
        simulation clock.  The job counts toward completion tracking and
        re-opens a drained run (``all_jobs_done`` drops back to ``False``),
        so stealing and retry machinery resume when traffic returns.
        ``estimated_task_duration`` overrides the engine's estimator — a
        serving client may supply its own runtime estimate (the paper's
        estimates come from prior runs of the same job).  A sink gets the
        job's ``submitted`` event, with the ``client`` fields merged in.
        """
        if spec.submit_time < self.sim.now:
            raise SimulationError(
                f"cannot submit job {spec.job_id} at t={spec.submit_time} "
                f"before now={self.sim.now}"
            )
        if estimated_task_duration is None:
            estimated_task_duration = self.estimate(spec)
        job = Job(
            job_id=spec.job_id,
            submit_time=spec.submit_time,
            task_durations=spec.task_durations,
            estimated_task_duration=estimated_task_duration,
            cutoff=self.config.cutoff,
        )
        self._jobs_total += 1
        self._done = False
        self.sim.schedule_at(job.submit_time, self.scheduler.on_job_submit, job)
        sink = self._sink
        if sink is not None:
            sink(
                KIND_SUBMITTED, job.submit_time, job.job_id, None, None,
                {
                    "num_tasks": job.num_tasks,
                    "true_mean": job.true_mean_task_duration,
                    "estimate": job.estimated_task_duration,
                    "task_seconds": job.task_seconds,
                    "scheduled_class": job.scheduled_class.value,
                    "true_class": job.true_class.value,
                    **(client or {}),
                },
            )
        return job

    # ------------------------------------------------------------------
    # Run loop.
    # ------------------------------------------------------------------
    def run(self, trace: Sequence["JobSpec"]) -> RunResult:
        """Materialize jobs from immutable specs, run to completion."""
        if not trace:
            raise ConfigurationError("cannot run an empty trace")
        # One collector pause covers materialization, the loop and the
        # result build (see "Memory" above).
        with collector_paused():
            self._refresh_batching()
            if self._faults is not None:
                self._faults.schedule()
            jobs = [
                self.submit_job(spec)
                for spec in sorted(trace, key=lambda s: (s.submit_time, s.job_id))
            ]
            self.sim.schedule_at(
                jobs[0].submit_time + UTILIZATION_INTERVAL_S,
                self._sample_utilization,
            )
            self.sim.run(max_events=self.config.max_events)
            if not self._done:
                raise SimulationError(
                    f"run drained its event heap with only {self._jobs_done}/"
                    f"{self._jobs_total} jobs complete"
                )
            result = self._build_result(jobs)
            sink = self._sink
            if sink is not None:
                sink(
                    KIND_RUN_END, result.end_time, None, None, None,
                    {
                        **asdict(result.stealing),
                        "events_fired": result.events_fired,
                        "utilization": [list(s) for s in self._utilization],
                    },
                )
            return result

    def _build_result(self, jobs: Iterable[Job]) -> RunResult:
        records = tuple(map(job_record, jobs))
        stealing = (
            self.stealing.stats() if self.stealing is not None else StealingStats()
        )
        return RunResult(
            scheduler_name=self.scheduler.name,
            n_workers=self.cluster.n_workers,
            jobs=records,
            utilization=tuple(self._utilization),
            stealing=stealing,
            events_fired=self.sim.events_fired,
            end_time=self.sim.now,
        )
