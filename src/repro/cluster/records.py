"""Immutable result records produced by a run."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from repro.cluster.job import Job, JobClass


class JobRecord(NamedTuple):
    """Everything the metrics layer needs to know about one finished job.

    A named tuple: its repr is the text every ``RunResult`` digest is
    taken over.  A pickled ``RunResult`` carries its records as plain
    tuples, and unpickling rebuilds them with ``tuple.__new__`` in C,
    never through this class's Python-level ``__new__``.
    """

    job_id: int
    submit_time: float
    completion_time: float
    num_tasks: int
    true_mean_task_duration: float
    estimated_task_duration: float
    task_seconds: float
    scheduled_class: JobClass
    true_class: JobClass
    stolen_tasks: int
    #: Task re-executions forced by injected worker crashes (0 without
    #: fault injection).
    retried_tasks: int = 0

    @property
    def runtime(self) -> float:
        return self.completion_time - self.submit_time


def job_record(job: Job) -> JobRecord:
    """A finished job's record (the simulator's and the prototype's)."""
    return JobRecord(
        job.job_id,
        job.submit_time,
        job.completion_time,  # type: ignore[arg-type]
        job.num_tasks,
        job.true_mean_task_duration,
        job.estimated_task_duration,
        job.task_seconds,
        job.scheduled_class,
        job.true_class,
        job.stolen_tasks,
        job.retried_tasks,
    )


class UtilizationSample(NamedTuple):
    """One utilization snapshot (taken every 100 s, Section 2.3)."""

    time: float
    busy_workers: int
    total_workers: int

    @property
    def utilization(self) -> float:
        return self.busy_workers / self.total_workers


@dataclass(frozen=True, slots=True)
class StealingStats:
    """Aggregate work-stealing counters for a run."""

    rounds: int = 0
    successful_rounds: int = 0
    victims_probed: int = 0
    entries_stolen: int = 0

    @property
    def success_rate(self) -> float:
        if self.rounds == 0:
            return 0.0
        return self.successful_rounds / self.rounds


@dataclass(frozen=True, slots=True)
class RunResult:
    """Output of :meth:`ClusterEngine.run`."""

    scheduler_name: str
    n_workers: int
    jobs: tuple[JobRecord, ...]
    utilization: tuple[UtilizationSample, ...]
    stealing: StealingStats = field(default=StealingStats())
    events_fired: int = 0
    end_time: float = 0.0

    def __reduce__(self) -> tuple[Callable[..., RunResult], tuple]:
        # Plain tuples pickle and unpickle in C; the record classes'
        # own pickle form costs a Python frame per record.
        return _rebuild_run, (
            self.scheduler_name,
            self.n_workers,
            tuple(map(tuple, self.jobs)),
            tuple(map(tuple, self.utilization)),
            (
                self.stealing.rounds,
                self.stealing.successful_rounds,
                self.stealing.victims_probed,
                self.stealing.entries_stolen,
            ),
            self.events_fired,
            self.end_time,
        )

    def runtimes(self, job_class: JobClass | None = None) -> list[float]:
        """Job runtimes, optionally filtered by *true* class."""
        return [j.runtime for j in self.records(job_class)]

    def records(self, job_class: JobClass | None = None) -> list[JobRecord]:
        if job_class is None:
            return list(self.jobs)
        return [j for j in self.jobs if j.true_class is job_class]

    def median_utilization(self) -> float:
        if not self.utilization:
            return 0.0
        values = sorted(s.utilization for s in self.utilization)
        n = len(values)
        mid = n // 2
        if n % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])

    def max_utilization(self) -> float:
        if not self.utilization:
            return 0.0
        return max(s.utilization for s in self.utilization)


def _rows(
    cls: type[JobRecord] | type[UtilizationSample], rows: tuple[tuple, ...]
) -> tuple:
    """``rows`` as ``cls`` named tuples, each row of ``cls``'s arity."""
    if not set(map(len, rows)) <= {len(cls._fields)}:
        raise ValueError(f"pickled {cls.__name__} row of the wrong arity")
    return tuple(map(partial(tuple.__new__, cls), rows))


def _rebuild_run(
    scheduler_name: str,
    n_workers: int,
    jobs: tuple[tuple, ...],
    utilization: tuple[tuple, ...],
    stealing: tuple[int, int, int, int],
    events_fired: int,
    end_time: float,
) -> RunResult:
    """Unpickle the flat form :meth:`RunResult.__reduce__` writes."""
    return RunResult(
        scheduler_name,
        n_workers,
        _rows(JobRecord, jobs),
        _rows(UtilizationSample, utilization),
        StealingStats(*stealing),
        events_fired,
        end_time,
    )
