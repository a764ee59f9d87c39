"""Node monitors: worker threads executing sleep tasks.

Each monitor drives one of the cluster's own
:class:`~repro.cluster.worker.Worker` objects (Section 3.1's single-slot
server): its FIFO queue of :class:`~repro.cluster.worker.ProbeEntry`/
:class:`~repro.cluster.worker.TaskEntry`, the entry in its slot, and the
Figure 3 stealing range (:meth:`~repro.cluster.worker.Worker.eligible_steal_range`)
are the simulator's, used under the monitor's condition variable.  A
probe at the head of the queue binds late through its policy's
:class:`~repro.schedulers.frontend.ProbeFrontend` over a real (slept)
request/response exchange; idle monitors steal from randomly chosen
general-partition victims.

Lock order: host -> monitor.  The host lock (held by
:class:`~repro.runtime.engine.PrototypeCluster` around every policy call)
may be held while a policy places entries into a monitor's queue, which
takes that monitor's condition variable.  A monitor therefore never calls
the host while holding its own condition variable, and never holds two
monitors' condition variables at once.
"""

from __future__ import annotations

import random
import threading
import time
from typing import TYPE_CHECKING

from repro.cluster.engine import NETWORK_DELAY_S
from repro.cluster.worker import QueueEntry, TaskEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import PrototypeCluster

#: One-way RPC latency in seconds, slept by every task request, task
#: response, completion report and steal request: the simulator's delay.
LATENCY = NETWORK_DELAY_S

#: Seconds an idle monitor waits for work before its next steal round.
STEAL_RETRY = 0.005


class NodeMonitor(threading.Thread):
    """A thread driving one of the cluster's single-slot workers."""

    def __init__(
        self,
        host: "PrototypeCluster",
        monitor_id: int,
        steal_scope: int,
        steal_cap: int,
        seed: int,
    ) -> None:
        super().__init__(name=f"node-monitor-{monitor_id}", daemon=True)
        self.monitor_id = monitor_id
        self.worker = host.cluster.workers[monitor_id]
        self._host = host
        #: Victims are monitors ``[0, steal_scope)``; 0 disables stealing.
        self._steal_scope = steal_scope
        self._steal_cap = steal_cap
        self._rng = random.Random((seed << 16) ^ monitor_id)
        self._cv = threading.Condition()
        self._stop_event = threading.Event()
        # Statistics.
        self.tasks_executed = 0
        self.steal_rounds = 0
        self.successful_rounds = 0
        self.victims_probed = 0
        self.entries_stolen = 0

    # ------------------------------------------------------------------
    def deliver(self, entry: QueueEntry) -> None:
        """RPC target: enqueue a probe or task."""
        with self._cv:
            self.worker.enqueue(entry)
            self._cv.notify()

    def release_stealable(self) -> list[QueueEntry]:
        """RPC target: hand out the first short group behind a long entry."""
        with self._cv:
            span = self.worker.eligible_steal_range()
            return [] if span is None else self.worker.remove_range(*span)

    def shutdown(self) -> None:
        self._stop_event.set()
        with self._cv:
            self._cv.notify()

    # ------------------------------------------------------------------
    def run(self) -> None:  # pragma: no cover - exercised via engine tests
        while not self._stop_event.is_set():
            entry = self._pop_or_wait()
            if entry is None:
                if not self._stop_event.is_set():
                    self._attempt_steal()
                continue
            try:
                self._process(entry)
            finally:
                with self._cv:
                    self.worker.current_entry = None

    def _pop_or_wait(self) -> QueueEntry | None:
        worker = self.worker
        with self._cv:
            if not worker.queue:
                self._cv.wait(timeout=STEAL_RETRY)
            if not worker.queue:
                return None
            entry = worker.current_entry = worker.pop_next()
            return entry

    def _process(self, entry: QueueEntry) -> None:
        host = self._host
        if isinstance(entry, TaskEntry):
            task = entry.task
        else:
            time.sleep(LATENCY)  # task request travels to the scheduler
            bound = host.bind_probe(entry)
            time.sleep(LATENCY)  # response (task or cancel) travels back
            if bound is None:
                return
            task = bound
        # A task is handed to exactly one monitor, so its own state
        # machine needs no lock; job-wide state changes under the host's.
        task.start(self.monitor_id)
        time.sleep(task.duration)
        self.tasks_executed += 1
        time.sleep(LATENCY)  # completion report travels to the scheduler
        host.task_finished(task)

    def _attempt_steal(self) -> None:
        """One randomized stealing round (Section 3.6)."""
        n = self._steal_scope
        in_short_partition = self.worker.in_short_partition
        if n == 0 or (n == 1 and not in_short_partition):
            return
        self.steal_rounds += 1
        attempts = min(self._steal_cap, n - (0 if in_short_partition else 1))
        seen: set[int] = set()
        while len(seen) < attempts and not self._stop_event.is_set():
            victim_id = self._rng.randrange(n)
            if victim_id == self.monitor_id or victim_id in seen:
                continue
            seen.add(victim_id)
            self.victims_probed += 1
            time.sleep(LATENCY)  # steal request is a real message here
            stolen = self._host.monitors[victim_id].release_stealable()
            if stolen:
                self.successful_rounds += 1
                self.entries_stolen += len(stolen)
                self._host.mark_stolen(stolen)
                with self._cv:
                    self.worker.enqueue_front(stolen)
                    self._cv.notify()
                return
