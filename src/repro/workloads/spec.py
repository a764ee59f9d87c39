"""Immutable job specifications and the trace container.

The simulator's input format follows Section 4.1: tuples of
``(jobID, job submission time, number of tasks, duration of each task)``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from hashlib import blake2b
from typing import Iterable, Iterator, Sequence

from repro.core.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One job of a trace: submission time plus per-task durations."""

    job_id: int
    submit_time: float
    task_durations: tuple[float, ...]

    def __post_init__(self) -> None:
        durations = self.task_durations
        if not durations:
            raise ConfigurationError(f"job {self.job_id} has no tasks")
        if not (math.isfinite(self.submit_time) and self.submit_time >= 0):
            raise ConfigurationError(
                f"job {self.job_id} has a negative or non-finite submit time "
                f"{self.submit_time}"
            )
        # C-level checks: trace set-up validates every task.  A NaN or an
        # infinite duration makes the sum non-finite.
        if not (math.isfinite(sum(durations)) and min(durations) > 0):
            raise ConfigurationError(
                f"job {self.job_id} has a non-positive or non-finite task duration"
            )

    @property
    def num_tasks(self) -> int:
        return len(self.task_durations)

    @property
    def mean_task_duration(self) -> float:
        return sum(self.task_durations) / len(self.task_durations)

    @property
    def task_seconds(self) -> float:
        """Work contributed by this job: number of tasks x mean duration."""
        return sum(self.task_durations)

    def is_long(self, cutoff: float) -> bool:
        return self.mean_task_duration >= cutoff


class Trace(Sequence[JobSpec]):
    """An ordered collection of job specs with summary helpers."""

    def __init__(self, jobs: Iterable[JobSpec], name: str = "trace") -> None:
        self._jobs = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        if not self._jobs:
            raise ConfigurationError("a trace needs at least one job")
        self.name = name
        self._digest: str | None = None

    # Sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._jobs)

    def __getitem__(self, index):  # type: ignore[override]
        return self._jobs[index]

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self._jobs)

    # Summary helpers ---------------------------------------------------
    @property
    def horizon(self) -> float:
        """Time of the last submission."""
        return self._jobs[-1].submit_time

    @property
    def total_task_seconds(self) -> float:
        return sum(j.task_seconds for j in self._jobs)

    @property
    def total_tasks(self) -> int:
        return sum(j.num_tasks for j in self._jobs)

    def long_jobs(self, cutoff: float) -> list[JobSpec]:
        return [j for j in self._jobs if j.is_long(cutoff)]

    def short_jobs(self, cutoff: float) -> list[JobSpec]:
        return [j for j in self._jobs if not j.is_long(cutoff)]

    def nodes_for_full_utilization(self) -> float:
        """Workers needed to absorb the offered load with zero slack.

        Total work divided by the submission horizon: the analogue of the
        paper's practice of varying cluster size to vary utilization.
        """
        if self.horizon == 0:
            return float(self.total_task_seconds)
        return self.total_task_seconds / self.horizon

    def content_digest(self) -> str:
        """Stable hash of the full trace content.

        Covers every job id, submit time and per-task duration (exact IEEE
        bit patterns, not rounded summaries), so two traces share a digest
        iff a run over them is guaranteed to produce the same result.  The
        name is deliberately excluded: the engine never reads it, so
        renamed copies of the same workload share cached runs.  Computed
        once and memoized (jobs are immutable after construction).
        """
        if self._digest is None:
            h = blake2b(digest_size=20)
            for job in self._jobs:
                # The task count delimits the variable-length duration
                # block, keeping the byte stream unambiguous.
                h.update(
                    struct.pack("<qdq", job.job_id, job.submit_time, job.num_tasks)
                )
                h.update(
                    struct.pack(f"<{len(job.task_durations)}d", *job.task_durations)
                )
            self._digest = h.hexdigest()
        return self._digest

    def subset(self, n_jobs: int, name: str | None = None) -> "Trace":
        """First ``n_jobs`` jobs by submission order (the paper's 3300-job
        sample of the Google trace is built this way)."""
        if n_jobs <= 0:
            raise ConfigurationError(f"subset size must be positive, got {n_jobs}")
        return Trace(self._jobs[:n_jobs], name=name or f"{self.name}-subset")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name}, jobs={len(self._jobs)})"
