"""Node monitors: worker threads executing sleep tasks.

Each monitor owns a FIFO queue of the engine's own
:class:`~repro.cluster.worker.ProbeEntry`/:class:`~repro.cluster.worker.TaskEntry`
(Section 3.1's single-slot server).  A probe at the head of the queue
binds late through its policy's :class:`~repro.schedulers.frontend.ProbeFrontend`
over a real (slept) request/response exchange; idle monitors steal from
randomly chosen general-partition victims by the Figure 3 rule the
simulator uses (the shared :func:`repro.cluster.worker.find_first_short_group`).

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
from collections import deque
from typing import TYPE_CHECKING

from repro.cluster.engine import NETWORK_DELAY_S
from repro.cluster.worker import QueueEntry, TaskEntry, find_first_short_group

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import PrototypeCluster

#: One-way RPC latency in seconds, slept by every task request, task
#: response, completion report and steal request: the simulator's delay.
LATENCY = NETWORK_DELAY_S

#: Seconds an idle monitor waits for work before its next steal round.
STEAL_RETRY = 0.005


class NodeMonitor(threading.Thread):
    """A single-slot worker node with one FIFO queue."""

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
        self.in_short_partition = monitor_id >= host.cluster.n_general
        self._host = host
        #: Victims are monitors ``[0, steal_scope)``; 0 disables stealing.
        self._steal_scope = steal_scope
        self._steal_cap = steal_cap
        self._rng = random.Random((seed << 16) ^ monitor_id)
        self._queue: deque[QueueEntry] = deque()
        self._cv = threading.Condition()
        self._current_is_long = False
        self._has_current = False
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
            self._queue.append(entry)
            self._cv.notify()

    def release_stealable(self) -> list[QueueEntry]:
        """RPC target: hand out the first short group behind a long entry."""
        with self._cv:
            if not self._queue:
                return []
            span = find_first_short_group(
                self._has_current and self._current_is_long,
                (entry.is_long for entry in self._queue),
            )
            if span is None:
                return []
            entries = list(self._queue)
            self._queue = deque(entries[: span[0]] + entries[span[1] :])
            return entries[span[0] : span[1]]

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
                    self._has_current = False

    def _pop_or_wait(self) -> QueueEntry | None:
        with self._cv:
            if not self._queue:
                self._cv.wait(timeout=STEAL_RETRY)
            if not self._queue:
                return None
            entry = self._queue.popleft()
            self._has_current = True
            self._current_is_long = entry.is_long
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
        task.start(self.monitor_id, host.now())
        time.sleep(task.duration)
        self.tasks_executed += 1
        time.sleep(LATENCY)  # completion report travels to the scheduler
        host.task_finished(task)

    def _attempt_steal(self) -> None:
        """One randomized stealing round (Section 3.6)."""
        n = self._steal_scope
        if n == 0 or (n == 1 and not self.in_short_partition):
            return
        self.steal_rounds += 1
        attempts = min(self._steal_cap, n - (0 if self.in_short_partition else 1))
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
                    self._queue.extendleft(reversed(stolen))
                    self._cv.notify()
                return
