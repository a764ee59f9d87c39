"""Prototype cluster: a registry policy driving real threads.

Mirrors the paper's 100-node deployment: one node-monitor thread per
worker and a submission loop replaying a (time-scaled) trace in real
time.  The scheduling policy is the registry's own, bound to this
cluster instead of a :class:`~repro.cluster.engine.ClusterEngine`: a
policy touches its host only through ``cluster.ids(partition)``,
``config.seed``, ``centralized_down``, ``place_probes`` and
``place_tasks``, and this class provides exactly those five.  Each
monitor queues on one of the :class:`~repro.cluster.cluster.Cluster`'s own
:class:`~repro.cluster.worker.Worker` objects, so queue order, the slot and the
Figure 3 stealing range are the simulator's code; jobs and tasks are the
engine's state machines, and results come back as the same
:class:`repro.cluster.records.RunResult` the simulator produces, so every
metric and comparison works unchanged.

One host lock serializes every policy call (``on_job_submit``,
``on_task_finish`` and late binding through ``ProbeFrontend.next_task``)
together with the job-wide accounting around them; see
:mod:`repro.runtime.node_monitor` for the lock order.

Work stealing is the one mechanism not shared with the simulator:
:class:`~repro.schedulers.stealing.WorkStealing` is driven by heap timers
(retry backoff, parking, wake-ups on the simulation clock), which have no
counterpart on threads.  Each idle monitor instead runs its own steal
round over the shared Figure 3 rule, capped by the spec's ``steal_cap``.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Sequence

from repro.cluster.engine import EngineConfig, resolve_estimate
from repro.cluster.job import Job
from repro.cluster.records import RunResult, StealingStats, job_record
from repro.cluster.task import Task
from repro.cluster.worker import ProbeEntry, QueueEntry, TaskEntry
from repro.core.errors import ConfigurationError
from repro.runtime.node_monitor import NodeMonitor
from repro.schedulers.frontend import ProbeFrontend
from repro.schedulers.registry import build_cluster, policy_entry
from repro.workloads.spec import Trace

logger = logging.getLogger(__name__)


class PrototypeCluster:
    """Bind a spec's policy to monitor threads, replay a trace, return a
    :class:`RunResult`.

    ``spec`` is the duck-typed spec :func:`repro.schedulers.registry.build_engine`
    takes (a ``RunSpec`` or the service's ``RunConfig``).  ``timeout`` is
    the run's wall-clock budget; ``join_timeout`` bounds each monitor's
    join at shutdown.
    """

    def __init__(
        self, spec, timeout: float = 300.0, join_timeout: float = 5.0
    ) -> None:
        entry = policy_entry(spec.scheduler)
        if not entry.serves_online:
            raise ConfigurationError(
                f"policy {spec.scheduler!r} cannot run online on the prototype"
            )
        if getattr(spec, "faults", None) is not None:
            raise ConfigurationError("the prototype does not inject faults")
        if join_timeout <= 0:
            raise ConfigurationError("join_timeout must be positive")
        self.spec = spec
        self.timeout = timeout
        self.join_timeout = join_timeout
        self.cluster = build_cluster(spec, entry)
        self.config = EngineConfig(cutoff=spec.cutoff, seed=spec.seed)
        self.centralized_down = False
        self.estimate = resolve_estimate(getattr(spec, "estimate", None), spec.seed)
        #: Serializes every policy call and job-wide accounting.
        self.lock = threading.Lock()
        #: The run's jobs, in submission order.
        self.jobs: list[Job] = []
        self._jobs_total = 0
        self._jobs_done = 0
        self._all_done = threading.Event()
        self._t0 = 0.0
        #: Monitor ids whose threads outlived the shutdown join budget in
        #: the most recent :meth:`shutdown_and_join` (empty on a clean
        #: teardown).  Leaked threads are daemons, so they cannot keep
        #: the process alive — but a nonempty tuple means their RNG/queue
        #: state may still be mutating and the run should not be trusted
        #: for reuse of this cluster object.
        self.leaked_monitors: tuple[int, ...] = ()

        steal_scope = self.cluster.n_general if entry.uses_stealing else 0
        steal_cap = spec.params["steal_cap"] if entry.uses_stealing else 0
        self.monitors = [
            NodeMonitor(self, i, steal_scope, steal_cap, spec.seed)
            for i in range(self.cluster.n_workers)
        ]
        self.scheduler = entry.builder(spec.params)
        self.scheduler.bind(self)

    # -- the policy's view of its host ---------------------------------
    def place_probes(
        self, worker_ids: Sequence[int], job: Job, frontend: ProbeFrontend
    ) -> None:
        for worker_id in worker_ids:
            self.monitors[worker_id].deliver(ProbeEntry(job, frontend))

    def place_tasks(self, assignments: Sequence[tuple[int, Task]]) -> None:
        for worker_id, task in assignments:
            self.monitors[worker_id].deliver(TaskEntry(task))

    # -- called by node monitors (never under a monitor's lock) --------
    def now(self) -> float:
        return time.monotonic() - self._t0

    def bind_probe(self, entry: ProbeEntry) -> Task | None:
        """Late binding: the probe's next task, or ``None`` (cancel)."""
        with self.lock:
            task = entry.frontend.next_task()
            if task is not None and entry.stolen:
                task.mark_stolen()
        return task

    def mark_stolen(self, entries: Sequence[QueueEntry]) -> None:
        """Account a steal transfer the way the simulator does."""
        with self.lock:
            for entry in entries:
                entry.mark_stolen()

    def task_finished(self, task: Task) -> None:
        now = self.now()
        with self.lock:
            task.finish()
            self.scheduler.on_task_finish(task)
            if task.job.record_task_finish(now):
                self._jobs_done += 1
                if self._jobs_done == self._jobs_total:
                    self._all_done.set()

    # ------------------------------------------------------------------
    def shutdown_and_join(self) -> tuple[int, ...]:
        """Stop every monitor and join their threads with a bounded wait.

        Returns the ids of monitors whose threads failed to exit within
        ``join_timeout`` (also stored on :attr:`leaked_monitors` and
        logged as a warning).  A stuck monitor — e.g. one blocked in a
        cross-monitor steal against a wedged peer — therefore degrades a
        run's teardown into a reported leak instead of hanging the caller
        indefinitely.
        """
        for monitor in self.monitors:
            monitor.shutdown()
        leaked = []
        for monitor in self.monitors:
            monitor.join(timeout=self.join_timeout)
            if monitor.is_alive():
                leaked.append(monitor.monitor_id)
        self.leaked_monitors = tuple(leaked)
        if leaked:
            logger.warning(
                "%d node-monitor thread(s) did not exit within %.1fs of "
                "shutdown (ids %s); their daemon threads were abandoned",
                len(leaked),
                self.join_timeout,
                leaked,
            )
        return self.leaked_monitors

    def run(self, trace: Trace) -> RunResult:
        """Replay the trace in real time; blocks until all jobs finish."""
        if not trace:
            raise ConfigurationError("cannot run an empty trace")
        specs = sorted(trace, key=lambda s: (s.submit_time, s.job_id))
        self._jobs_total = len(specs)
        for monitor in self.monitors:
            monitor.start()
        self._t0 = time.monotonic()
        for spec in specs:
            delay = spec.submit_time - self.now()
            if delay > 0:
                time.sleep(delay)
            # Submission time is when the job actually reached the policy.
            job = Job(
                job_id=spec.job_id,
                submit_time=self.now(),
                task_durations=spec.task_durations,
                estimated_task_duration=self.estimate(spec),
                cutoff=self.config.cutoff,
            )
            self.jobs.append(job)
            with self.lock:
                self.scheduler.on_job_submit(job)

        if not self._all_done.wait(timeout=self.timeout):
            self.shutdown_and_join()
            raise TimeoutError(
                f"prototype run exceeded {self.timeout}s wall-clock budget"
            )
        self.shutdown_and_join()
        stats = StealingStats(
            rounds=sum(m.steal_rounds for m in self.monitors),
            successful_rounds=sum(m.successful_rounds for m in self.monitors),
            victims_probed=sum(m.victims_probed for m in self.monitors),
            entries_stolen=sum(m.entries_stolen for m in self.monitors),
        )
        return RunResult(
            scheduler_name=f"prototype-{self.spec.scheduler}",
            n_workers=self.cluster.n_workers,
            jobs=tuple(map(job_record, self.jobs)),
            utilization=(),
            stealing=stats,
            events_fired=0,
            end_time=self.now(),
        )
