"""Cluster construction and partitioning (Section 3.4).

Hawk reserves a portion of the servers (the *short partition*) that runs
exclusively short tasks.  The remaining servers form the *general
partition*: long tasks are restricted to it, short tasks may run anywhere.
"""

from __future__ import annotations

import enum

from repro.cluster.worker import Worker
from repro.core.errors import ConfigurationError


class Partition(enum.Enum):
    """Named server sets used by scheduler policies."""

    ALL = "all"
    GENERAL = "general"
    SHORT_RESERVED = "short_reserved"


class Cluster:
    """A fixed set of single-slot workers split into partitions.

    Workers ``[0, n_general)`` form the general partition and
    ``[n_general, n_workers)`` the short partition.  The contiguous layout
    makes partition membership an O(1) comparison and lets policies sample
    directly from index ranges.
    """

    def __init__(self, n_workers: int, short_partition_fraction: float = 0.0) -> None:
        if n_workers <= 0:
            raise ConfigurationError(f"n_workers must be positive, got {n_workers}")
        if not 0.0 <= short_partition_fraction < 1.0:
            raise ConfigurationError(
                "short_partition_fraction must be in [0, 1), got "
                f"{short_partition_fraction}"
            )
        self.n_workers = n_workers
        n_short = int(round(n_workers * short_partition_fraction))
        if short_partition_fraction > 0.0 and n_short == 0:
            n_short = 1  # a non-zero reservation always gets at least a node
        self.n_general = n_workers - n_short
        if self.n_general == 0:
            raise ConfigurationError(
                "short partition cannot cover the whole cluster"
            )
        self.workers = [
            Worker(i, in_short_partition=(i >= self.n_general))
            for i in range(n_workers)
        ]
        #: Engine-maintained count of general-partition workers whose
        #: queues could hold stealable work — a cheap necessary condition
        #: used by the stealing policy to park idle workers.
        self.steal_hint_count = 0
        # Struct-of-arrays column, indexed by worker id, so the stealing
        # policy can scan thousands of workers without touching Worker
        # objects: each general worker's steal hint (written by the
        # engine's hint sync, read as the victim eligibility bitmap).
        self.steal_flags = bytearray(n_workers)

    @property
    def n_short(self) -> int:
        return self.n_workers - self.n_general

    def ids(self, partition: Partition) -> range:
        """Worker-id range for a partition (cheap, no copying)."""
        if partition is Partition.ALL:
            return range(self.n_workers)
        if partition is Partition.GENERAL:
            return range(self.n_general)
        return range(self.n_general, self.n_workers)

    def worker(self, worker_id: int) -> Worker:
        return self.workers[worker_id]

    def busy_count(self) -> int:
        """Number of workers currently executing a task (O(n); the engine
        keeps an O(1) counter for sampling — this is the ground truth used
        by tests)."""
        from repro.cluster.worker import WorkerState

        return sum(1 for w in self.workers if w.state is WorkerState.BUSY)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(n={self.n_workers}, general={self.n_general}, "
            f"short={self.n_short})"
        )
