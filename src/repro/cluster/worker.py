"""Worker nodes with single-slot FIFO queues (Section 3.1).

A queue holds two kinds of entries:

* :class:`TaskEntry` — a concrete task placed by the centralized scheduler
  (or a stolen concrete task).  The task and its duration are known.
* :class:`ProbeEntry` — a late-binding reservation placed by a distributed
  scheduler (Section 3.5).  When it reaches the head of the queue the
  worker asks the job's frontend for a task and receives either a task or a
  cancel.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.cluster.job import JobClass
from repro.core.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster.job import Job
    from repro.cluster.task import Task
    from repro.schedulers.frontend import ProbeFrontend


class WorkerState(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"  # executing a task
    WAITING = "waiting"  # probe at head; awaiting the scheduler's response
    DEAD = "dead"  # crashed by fault injection; ignores all traffic


def find_first_short_group(
    executing_long: bool, is_long_flags: Iterable[bool]
) -> tuple[int, int] | None:
    """Locate the first run of short entries queued behind a long one.

    This is the Figure 3 stealing rule behind
    :meth:`Worker.eligible_steal_range`, which the simulator's engine and
    the prototype runtime's node monitors both call: the first
    maximal run of consecutive short entries preceded by a long entry
    (counting the entry occupying the slot) is eligible.  Returns
    ``(start, stop)`` indices into the queue or ``None``.
    """
    seen_long = executing_long
    start = None
    i = -1
    for i, is_long in enumerate(is_long_flags):
        if is_long:
            if start is not None:
                return (start, i)
            seen_long = True
        elif seen_long and start is None:
            start = i
    if start is not None:
        return (start, i + 1)
    return None


_LONG = JobClass.LONG


class QueueEntry:
    """Base class for queue entries.

    ``is_task`` and ``is_long`` are plain attributes rather than
    properties/isinstance checks: the engine reads them on every queue
    transition and stealing eligibility scan, where descriptor dispatch
    is measurable.  For the same reason each concrete class sets every
    slot in one ``__init__`` (one probe per message is created, so a
    chained base constructor is a measurable share of the probe path).

    ``seq`` is the queue-order sequence number, assigned by the owning
    worker on enqueue; entries compare in queue order iff their seqs do.
    """

    __slots__ = ("job_class", "seq", "is_long")

    #: Type flag: ``True`` for concrete tasks, ``False`` for probes.
    is_task = False

    job_class: JobClass
    seq: int
    is_long: bool

    @property
    def is_short(self) -> bool:
        return not self.is_long

    def mark_stolen(self) -> None:
        """Account a steal of this entry where it happens (Figure 3)."""
        raise NotImplementedError


class TaskEntry(QueueEntry):
    """A concrete task sitting in a worker queue."""

    __slots__ = ("task",)

    is_task = True

    def __init__(self, task: "Task") -> None:
        job_class = task.job.scheduled_class
        self.job_class = job_class
        self.is_long = job_class is _LONG
        self.seq = 0
        self.task = task

    def mark_stolen(self) -> None:
        self.task.mark_stolen()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskEntry({self.task!r})"


class ProbeEntry(QueueEntry):
    """A late-binding reservation for one of a job's tasks."""

    __slots__ = ("job", "frontend", "stolen")

    def __init__(self, job: "Job", frontend: "ProbeFrontend") -> None:
        job_class = job.scheduled_class
        self.job_class = job_class
        self.is_long = job_class is _LONG
        self.seq = 0
        self.job = job
        self.frontend = frontend
        #: Set by a steal; the task this probe binds then counts as stolen.
        self.stolen = False

    def mark_stolen(self) -> None:
        self.stolen = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProbeEntry(job={self.job.job_id}, {self.job_class.value})"


class Worker:
    """A single-slot server with one FIFO queue.

    The worker itself is passive state; the :class:`ClusterEngine` drives
    all transitions so that the event ordering lives in one place.
    """

    __slots__ = (
        "worker_id",
        "in_short_partition",
        "state",
        "queue",
        "current_entry",
        "current_task",
        "_short_seqs",
        "_long_seqs",
        "_head_seq",
        "_tail_seq",
        "counted_steal_hint",
        "steal_backoff",
        "pending_steal_retry",
        "tasks_executed",
        "tasks_stolen_from",
        "tasks_stolen_by",
    )

    def __init__(self, worker_id: int, in_short_partition: bool) -> None:
        self.worker_id = worker_id
        self.in_short_partition = in_short_partition
        self.state = WorkerState.IDLE
        self.queue: list[QueueEntry] = []
        self.current_entry: QueueEntry | None = None
        self.current_task: "Task | None" = None
        # Per-class sequence numbers of queued entries, in queue order.
        # Tail enqueues count up from 0, head enqueues count down from -1,
        # so both lists stay sorted and ``_short_seqs[-1] > _long_seqs[0]``
        # is an O(1) test for "a short entry sits behind a long one".
        # Lists, not deques: an empty list allocates no item block, while
        # an empty deque pre-allocates 64 slots, and queues here hold at
        # most a few dozen entries, so head pops stay cheap.
        self._short_seqs: list[int] = []
        self._long_seqs: list[int] = []
        self._head_seq = -1
        self._tail_seq = 0
        #: Whether this worker is counted in the cluster's steal-hint
        #: tally (engine-maintained, general partition only).
        self.counted_steal_hint = False
        # Work-stealing retry bookkeeping (see stealing policy).
        self.steal_backoff = 0.0
        #: The pending retry's revocable heap cell (see
        #: ``Simulation.schedule_cancellable``), or ``None``.
        self.pending_steal_retry: list | None = None
        # Statistics.
        self.tasks_executed = 0
        self.tasks_stolen_from = 0
        self.tasks_stolen_by = 0

    @property
    def long_entries(self) -> int:
        """Number of long entries currently in the queue."""
        return len(self._long_seqs)

    def enqueue(self, entry: QueueEntry) -> None:
        entry.seq = self._tail_seq
        self._tail_seq += 1
        self.queue.append(entry)
        if entry.is_long:
            self._long_seqs.append(entry.seq)
        else:
            self._short_seqs.append(entry.seq)

    def enqueue_front(self, entries: Sequence[QueueEntry]) -> None:
        """Place stolen entries at the head (they were blocked elsewhere)."""
        for entry in reversed(entries):
            entry.seq = self._head_seq
            self._head_seq -= 1
            self.queue.insert(0, entry)
            if entry.is_long:
                self._long_seqs.insert(0, entry.seq)
            else:
                self._short_seqs.insert(0, entry.seq)

    def pop_next(self) -> QueueEntry:
        if not self.queue:
            raise SimulationError(f"worker {self.worker_id} popped an empty queue")
        entry = self.queue.pop(0)
        if entry.is_long:
            del self._long_seqs[0]
        else:
            del self._short_seqs[0]
        return entry

    def steal_hint(self) -> bool:
        """O(1) test, exactly equivalent to ``eligible_steal_range() is
        not None``.

        The Figure 3 rule needs a short entry *behind* a long one, counting
        the entry occupying the slot: either some queued short has a queued
        long ahead of it, or the slot holds a long and anything short is
        queued.  The cluster-wide tally of this hint lets idle workers park
        instead of polling when no steal can possibly succeed.
        """
        shorts = self._short_seqs
        if not shorts:
            return False  # nothing short to steal
        longs = self._long_seqs
        if longs and shorts[-1] > longs[0]:
            return True  # last short sits behind the first queued long
        entry = self.current_entry
        return entry is not None and entry.is_long

    def eligible_steal_range(self) -> tuple[int, int] | None:
        """Locate the group of short entries eligible for stealing.

        Implements Figure 3: the first maximal run of consecutive short
        entries that is preceded by a long entry (counting the entry
        currently occupying the slot).  Returns ``(start, stop)`` indices
        into the queue, or ``None`` when nothing is eligible.
        """
        if not self.steal_hint():
            return None
        entry = self.current_entry
        return find_first_short_group(
            entry is not None and entry.is_long,
            (entry.is_long for entry in self.queue),
        )

    def remove_range(self, start: int, stop: int) -> list[QueueEntry]:
        """Remove and return ``queue[start:stop]`` preserving order."""
        queue = self.queue
        if not 0 <= start <= stop <= len(queue):
            raise SimulationError(
                f"invalid steal range [{start}, {stop}) for queue of "
                f"length {len(queue)}"
            )
        stolen = queue[start:stop]
        del queue[start:stop]
        self._drop_seqs(self._short_seqs, [e.seq for e in stolen if e.is_short])
        self._drop_seqs(self._long_seqs, [e.seq for e in stolen if e.is_long])
        return stolen

    @staticmethod
    def _drop_seqs(seqs: list[int], removed: list[int]) -> None:
        """Drop a contiguous ascending run of values from a sorted list."""
        if removed:
            i = seqs.index(removed[0])
            del seqs[i : i + len(removed)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        part = "short" if self.in_short_partition else "general"
        return (
            f"Worker(id={self.worker_id}, {part}, {self.state.value}, "
            f"qlen={len(self.queue)})"
        )
