"""Immutable result records produced by a run.

A :class:`RunResult` keeps its job records and utilization samples as
columns: one read-only NumPy array per record field, in record order,
with the two job classes stored as booleans (true for ``SHORT``).  The
metrics fold the arrays directly; :class:`JobRecord` and
:class:`UtilizationSample` named tuples are built only when a caller
asks for them (``RunResult.jobs``, ``.utilization``, ``.records()``),
and ``repr(RunResult)`` renders them, so every digest reads the same
text as when results held tuples of records.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, NamedTuple, Sequence, TypeVar, cast

import numpy as np
import numpy.typing as npt

from repro.cluster.job import Job, JobClass


class JobRecord(NamedTuple):
    """Everything the metrics layer needs to know about one finished job.

    A named tuple: its repr is the text every ``RunResult`` digest is
    taken over.  A ``RunResult`` stores its records as
    :class:`JobColumns` and rebuilds them with ``tuple.__new__`` in C,
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


_INT = np.dtype(np.int64)
_FLOAT = np.dtype(np.float64)
_BOOL = np.dtype(np.bool_)

Ints = npt.NDArray[np.int64]
Floats = npt.NDArray[np.float64]
Flags = npt.NDArray[np.bool_]


class JobColumns(NamedTuple):
    """A run's :class:`JobRecord` fields, one read-only array each.

    Row ``i`` of every array is record ``i``.  The classes are booleans,
    true for :attr:`JobClass.SHORT`.  A tuple of arrays: compare two with
    ``np.array_equal`` per column, not ``==``.
    """

    job_id: Ints
    submit_time: Floats
    completion_time: Floats
    num_tasks: Ints
    true_mean_task_duration: Floats
    estimated_task_duration: Floats
    task_seconds: Floats
    scheduled_short: Flags
    true_short: Flags
    stolen_tasks: Ints
    retried_tasks: Ints


class UtilizationColumns(NamedTuple):
    """A run's :class:`UtilizationSample` fields, one read-only array each."""

    time: Floats
    busy_workers: Ints
    total_workers: Ints


#: Each column's dtype; the boolean columns are the job classes.
_DTYPES: dict[type, tuple[np.dtype[Any], ...]] = {
    JobColumns: (
        _INT, _FLOAT, _FLOAT, _INT, _FLOAT, _FLOAT, _FLOAT, _BOOL, _BOOL, _INT, _INT
    ),
    UtilizationColumns: (_FLOAT, _INT, _INT),
}
#: The same dtypes as a pickled column names them (``dtype.str``).
_DTYPE_STRS = {cls: tuple(d.str for d in dtypes) for cls, dtypes in _DTYPES.items()}
#: ``np.frombuffer`` typed at one signature, so that ``map`` can take it.
_wrap: Callable[[bytes, np.dtype[Any]], npt.NDArray[Any]] = np.frombuffer
#: A class column's boolean indexes this pair.
_CLASSES = (JobClass.LONG, JobClass.SHORT)
_is_short = partial(operator.is_, JobClass.SHORT)
#: A record from a row of its field values, built in C (the classes'
#: ``_make`` and ``__new__`` run a Python frame per record).
_record_of_row = cast(
    Callable[[Iterable[Any]], JobRecord], partial(tuple.__new__, JobRecord)
)
_sample_of_row = cast(
    Callable[[Iterable[Any]], UtilizationSample],
    partial(tuple.__new__, UtilizationSample),
)

_Columns = TypeVar("_Columns", JobColumns, UtilizationColumns)


def _read_only(array: npt.NDArray[Any]) -> npt.NDArray[Any]:
    array.flags.writeable = False
    return array


def _columns(cls: type[_Columns], rows: Sequence[tuple]) -> _Columns:
    """``rows`` (records or their plain tuples, in order) as ``cls``."""
    dtypes = _DTYPES[cls]
    fields: list[Sequence[Any]] = list(zip(*rows)) or [()] * len(dtypes)
    arrays = []
    for values, dtype in zip(fields, dtypes):
        items: Iterable[Any] = values
        if dtype == _BOOL:  # a class column
            items = map(_is_short, values)
        arrays.append(_read_only(np.fromiter(items, dtype, len(values))))
    return cls(*arrays)


def _job_rows(columns: JobColumns, index: slice | Flags) -> list[JobRecord]:
    """The records at ``index`` of ``columns``, in order."""
    fields = [
        list(map(_CLASSES.__getitem__, column[index].tolist()))
        if column.dtype == _BOOL
        else column[index].tolist()
        for column in columns
    ]
    return list(map(_record_of_row, zip(*fields)))


#: ``slice(None)``: every job, as a view.
_ALL = slice(None)


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class RunResult:
    """Output of :meth:`ClusterEngine.run`.

    The constructor takes the job records and utilization samples (or
    their columns) and keeps only the columns (see the module docstring).
    ``jobs`` and ``utilization`` rebuild the record tuples on each
    access; ``repr``, ``==`` and ``hash`` give what the frozen dataclass
    over the records gave, so a digest, an equality or a hash is the same
    as with the record form.  A result pickles each column as its dtype
    and raw bytes; loading checks every dtype and that the columns are
    of one length (``ValueError`` otherwise) and wraps the bytes,
    read-only, without a copy.
    """

    scheduler_name: str
    n_workers: int
    job_columns: JobColumns
    utilization_columns: UtilizationColumns
    stealing: StealingStats
    events_fired: int
    end_time: float

    def __init__(
        self,
        scheduler_name: str,
        n_workers: int,
        jobs: Sequence[JobRecord] | JobColumns,
        utilization: Sequence[UtilizationSample] | UtilizationColumns,
        stealing: StealingStats = StealingStats(),
        events_fired: int = 0,
        end_time: float = 0.0,
    ) -> None:
        if not isinstance(jobs, JobColumns):
            jobs = _columns(JobColumns, jobs)
        if not isinstance(utilization, UtilizationColumns):
            utilization = _columns(UtilizationColumns, utilization)
        object.__setattr__(self, "scheduler_name", scheduler_name)
        object.__setattr__(self, "n_workers", n_workers)
        object.__setattr__(self, "job_columns", jobs)
        object.__setattr__(self, "utilization_columns", utilization)
        object.__setattr__(self, "stealing", stealing)
        object.__setattr__(self, "events_fired", events_fired)
        object.__setattr__(self, "end_time", end_time)

    def __reduce__(self) -> tuple[Callable[..., RunResult], tuple]:
        # Each column travels as its dtype and raw bytes; loading wraps
        # the bytes without copying them.
        return _rebuild_columns, (
            self.scheduler_name,
            self.n_workers,
            _blobs(self.job_columns),
            _blobs(self.utilization_columns),
            (
                self.stealing.rounds,
                self.stealing.successful_rounds,
                self.stealing.victims_probed,
                self.stealing.entries_stolen,
            ),
            self.events_fired,
            self.end_time,
        )

    @property
    def jobs(self) -> tuple[JobRecord, ...]:
        """The job records, in order (built on each access)."""
        return tuple(_job_rows(self.job_columns, _ALL))

    @property
    def utilization(self) -> tuple[UtilizationSample, ...]:
        """The utilization samples, in order (built on each access)."""
        fields = [column.tolist() for column in self.utilization_columns]
        return tuple(map(_sample_of_row, zip(*fields)))

    def _record_fields(self) -> dict[str, Any]:
        """The record form's fields, in dataclass order."""
        return {
            "scheduler_name": self.scheduler_name,
            "n_workers": self.n_workers,
            "jobs": self.jobs,
            "utilization": self.utilization,
            "stealing": self.stealing,
            "events_fired": self.events_fired,
            "end_time": self.end_time,
        }

    def __repr__(self) -> str:
        fields = self._record_fields().items()
        return f"RunResult({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __hash__(self) -> int:
        return hash(tuple(self._record_fields().values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunResult):
            return NotImplemented
        return self is other or (
            (self.scheduler_name, self.n_workers, self.stealing)
            == (other.scheduler_name, other.n_workers, other.stealing)
            and (self.events_fired, self.end_time)
            == (other.events_fired, other.end_time)
            and all(map(np.array_equal, self.job_columns, other.job_columns))
            and all(
                map(np.array_equal, self.utilization_columns, other.utilization_columns)
            )
        )

    def class_index(self, job_class: JobClass | None) -> slice | Flags:
        """Selects the jobs of *true* class ``job_class`` (all for ``None``)
        from any column of :attr:`job_columns`."""
        if job_class is None:
            return _ALL
        if job_class is JobClass.SHORT:
            return self.job_columns.true_short
        return np.logical_not(self.job_columns.true_short)

    def runtime_column(self, index: slice | Flags = _ALL) -> Floats:
        """``completion_time - submit_time`` of the jobs at ``index``."""
        columns = self.job_columns
        return np.subtract(columns.completion_time[index], columns.submit_time[index])

    def runtimes(self, job_class: JobClass | None = None) -> list[float]:
        """Job runtimes, optionally filtered by *true* class."""
        return self.runtime_column(self.class_index(job_class)).tolist()

    def records(self, job_class: JobClass | None = None) -> list[JobRecord]:
        return _job_rows(self.job_columns, self.class_index(job_class))

    def _utilizations(self) -> Floats:
        columns = self.utilization_columns
        return np.divide(columns.busy_workers, columns.total_workers)

    def median_utilization(self) -> float:
        values = np.sort(self._utilizations()).tolist()
        if not values:
            return 0.0
        n = len(values)
        mid = n // 2
        if n % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])

    def max_utilization(self) -> float:
        values = self._utilizations()
        if not values.size:
            return 0.0
        return float(values.max())


def _blobs(columns: tuple[npt.NDArray[Any], ...]) -> tuple[tuple[str, bytes], ...]:
    return tuple((column.dtype.str, column.tobytes()) for column in columns)


def _from_blobs(cls: type[_Columns], blobs: tuple[tuple[str, bytes], ...]) -> _Columns:
    """Pickled columns as read-only arrays over their bytes, checked.

    Every hit and pooled result comes here: only a blob whose dtype
    strings differ from ``_DTYPE_STRS`` runs the check that names the fault.
    """
    if tuple([dtype for dtype, _ in blobs]) != _DTYPE_STRS[cls]:
        name, dtypes = cls.__name__, _DTYPES[cls]
        if len(blobs) != len(dtypes):
            raise ValueError(
                f"pickled {name} has {len(blobs)} columns, not {len(dtypes)}"
            )
        for (dtype, _), expected in zip(blobs, dtypes):
            if dtype != expected.str:
                raise ValueError(
                    f"pickled {name} column of dtype {dtype!r}, not {expected.str!r}"
                )
    raws = [raw for _, raw in blobs]
    arrays = list(map(_wrap, raws, _DTYPES[cls]))
    if len(set(map(len, arrays))) > 1:
        raise ValueError(f"pickled {cls.__name__} columns of unequal lengths")
    if set(map(type, raws)) != {bytes}:  # an array over bytes is read-only
        for array in arrays:
            _read_only(array)
    return tuple.__new__(cls, arrays)


def _rebuild_columns(
    scheduler_name: str,
    n_workers: int,
    jobs: tuple[tuple[str, bytes], ...],
    utilization: tuple[tuple[str, bytes], ...],
    stealing: tuple[int, int, int, int],
    events_fired: int,
    end_time: float,
) -> RunResult:
    """Unpickle the column form :meth:`RunResult.__reduce__` writes."""
    return RunResult(
        scheduler_name,
        n_workers,
        _from_blobs(JobColumns, jobs),
        _from_blobs(UtilizationColumns, utilization),
        StealingStats(*stealing),
        events_fired,
        end_time,
    )

