"""Result records through the disk cache: round trip and pinned text.

``JobRecord`` and ``UtilizationSample`` are named tuples.  Their repr is
part of every ``RunResult`` digest, so it is pinned here as a literal: a
later type change that alters the text fails this test, not only the
benchmark's reference digests.  The chaos-plan Hawk run's whole repr is
pinned the same way, by its sha256.

A ``RunResult`` keeps its records as read-only NumPy columns and
pickles them as raw bytes with their dtypes.  Only the code that wrote a
blob reads it (the disk cache's directory is keyed on the simulator's
source), so the column form is the only form a load meets.  A column
blob that does not fit the columns (wrong dtype, unequal lengths) fails
to load with ``ValueError``, which the disk cache counts as unreadable
and misses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import records
from repro.cluster.faults import FaultPlan
from repro.cluster.job import JobClass
from repro.cluster.records import (
    JobRecord,
    RunResult,
    StealingStats,
    UtilizationSample,
)
from repro.experiments.config import execute
from repro.experiments.parallel import DiskCache
from tests.cluster.test_faults import CHAOS, chaos_trace, spec_for

FIELDS = (7, 1.5, 12.25, 3, 3.5, 4.0, 10.5, JobClass.SHORT, JobClass.LONG, 2)
RECORD = JobRecord(*FIELDS, 1)
SAMPLE = UtilizationSample(100.0, 3, 4)

#: The repr the frozen-dataclass records produced; the digests of every
#: committed result were taken over this text.
RECORD_REPR = (
    "JobRecord(job_id=7, submit_time=1.5, completion_time=12.25, num_tasks=3, "
    "true_mean_task_duration=3.5, estimated_task_duration=4.0, "
    "task_seconds=10.5, scheduled_class=<JobClass.SHORT: 'short'>, "
    "true_class=<JobClass.LONG: 'long'>, stolen_tasks=2, retried_tasks=1)"
)
SAMPLE_REPR = "UtilizationSample(time=100.0, busy_workers=3, total_workers=4)"
#: sha256 of the repr of a Hawk run under every fault family (``CHAOS`` on
#: ``chaos_trace``), as the code that wrote the pre-column blobs ran it.
CHAOS_HAWK_REPR_SHA256 = (
    "9e833e8fe1ae877dc43d3d519ff5da6f9d54e8ecc2a8b3a81548fbaee7d546dc"
)


@pytest.mark.parametrize(
    "faults", [None, FaultPlan.of(**CHAOS)], ids=["plain", "faulted"]
)
def test_run_round_trips_through_disk_cache(tmp_path, faults):
    result = execute(spec_for("hawk", faults=faults), chaos_trace())
    retried = sum(job.retried_tasks for job in result.jobs)
    assert (retried > 0) == (faults is not None)
    cache = DiskCache(tmp_path)
    cache.store("k" * 40, result)
    loaded = cache.load("k" * 40)
    assert loaded is not result
    assert loaded == result
    assert repr(loaded) == repr(result)
    assert type(loaded.jobs[0]) is JobRecord
    assert type(loaded.utilization[0]) is UtilizationSample


def test_record_reprs_are_pinned():
    assert repr(RECORD) == RECORD_REPR
    assert repr(SAMPLE) == SAMPLE_REPR


def test_chaos_hawk_run_is_pinned():
    fresh = execute(spec_for("hawk", faults=FaultPlan.of(**CHAOS)), chaos_trace())
    digest = hashlib.sha256(repr(fresh).encode()).hexdigest()
    assert digest == CHAOS_HAWK_REPR_SHA256


@pytest.mark.parametrize(
    "obj, name", [(RECORD, "job_id"), (RECORD, "retried_tasks"), (SAMPLE, "time")]
)
def test_records_are_immutable(obj, name):
    with pytest.raises(AttributeError):
        setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        obj.unknown_field = 0


def test_retried_tasks_defaults_to_zero():
    record = JobRecord(*FIELDS)
    assert record.retried_tasks == 0
    assert record == RECORD._replace(retried_tasks=0)


# -- the column pickle form ----------------------------------------------------
floats = st.floats(allow_nan=False)
counts = st.integers(0, 10**6)
classes = st.sampled_from(JobClass)
job_records = st.builds(
    JobRecord,
    counts, floats, floats, counts, floats, floats, floats,
    classes, classes, counts, counts,
)
samples = st.builds(UtilizationSample, floats, counts, counts)
run_results = st.builds(
    RunResult,
    st.text(max_size=12),
    st.integers(1, 10**5),
    st.lists(job_records, max_size=20).map(tuple),
    st.lists(samples, max_size=8).map(tuple),
    st.builds(StealingStats, counts, counts, counts, counts),
    counts,
    floats,
)


@settings(max_examples=200, deadline=None)
@given(run_results)
def test_pickle_round_trip_rebuilds_every_record(result):
    loaded = pickle.loads(pickle.dumps(result))
    assert loaded == result
    assert repr(loaded) == repr(result)
    assert type(loaded.stealing) is StealingStats
    assert all(type(job) is JobRecord for job in loaded.jobs)
    assert all(type(s) is UtilizationSample for s in loaded.utilization)
    for new, old in zip(loaded.jobs, result.jobs):
        assert new.scheduled_class is old.scheduled_class
        assert new.true_class is old.true_class


def test_pickle_carries_columns_not_record_classes():
    result = execute(spec_for("hawk", faults=FaultPlan.of(**CHAOS)), chaos_trace())
    assert result.utilization and result.stealing.rounds
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"JobRecord" not in blob and b"UtilizationSample" not in blob
    assert b"_rebuild_columns" in blob
    assert result.job_columns.task_seconds.tobytes() in blob


class _Forged:
    """Pickles as ``reduce(result)`` with its arguments edited by ``edit``."""

    def __init__(self, reduce, edit):
        self.reduce, self.edit = reduce, edit

    def __reduce__(self):
        result = execute(spec_for("hawk"), chaos_trace())
        rebuild, args = self.reduce(result)
        return rebuild, self.edit(args)


def _edit_column(field, edit):
    """Edits the (dtype, bytes) pair of one job column in reduce args."""
    index = records.JobColumns._fields.index(field)

    def edit_args(args):
        jobs = list(args[2])
        jobs[index] = edit(*jobs[index])
        return args[:2] + (tuple(jobs),) + args[3:]

    return edit_args


MALFORMED = {
    "unequal lengths": (
        _edit_column("submit_time", lambda dtype, raw: (dtype, raw[:-8])),
        "JobColumns columns of unequal lengths",
    ),
    "wrong dtype": (
        _edit_column("job_id", lambda dtype, raw: ("<f8", raw)),
        "JobColumns column of dtype '<f8', not '<i8'",
    ),
    "narrow dtype": (
        _edit_column("num_tasks", lambda dtype, raw: ("<i4", raw[::2])),
        "JobColumns column of dtype '<i4', not '<i8'",
    ),
    "torn column": (
        _edit_column("task_seconds", lambda dtype, raw: (dtype, raw[:-3])),
        "multiple of element size",
    ),
    "missing column": (
        lambda args: args[:2] + (args[2][:-1],) + args[3:],
        "JobColumns has 10 columns, not 11",
    ),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_column_blob_fails_to_load_and_misses(tmp_path, name):
    edit, message = MALFORMED[name]
    blob = pickle.dumps(_Forged(lambda r: r.__reduce__(), edit))
    with pytest.raises(ValueError, match=message):
        pickle.loads(blob)
    cache = DiskCache(tmp_path)
    cache.root.mkdir(parents=True)
    cache.path("c" * 40).write_bytes(blob)
    assert cache.load("c" * 40) is None
    assert cache.unreadable == 1


def test_columns_over_writable_raws_load_read_only():
    """A pickle may carry a column's raw as a ``bytearray``, which NumPy
    wraps writable; the loaded columns are read-only all the same."""

    def to_bytearrays(args):
        def writable(blobs):
            return tuple((dtype, bytearray(raw)) for dtype, raw in blobs)

        return args[:2] + (writable(args[2]), writable(args[3])) + args[4:]

    forged = _Forged(lambda r: r.__reduce__(), to_bytearrays)
    loaded = pickle.loads(pickle.dumps(forged))
    assert loaded == execute(spec_for("hawk"), chaos_trace())
    columns = (*loaded.job_columns, *loaded.utilization_columns)
    assert all(type(column.base.obj) is bytearray for column in columns)
    assert not any(column.flags.writeable for column in columns)


def test_a_loaded_result_pickles_to_the_stored_blob(tmp_path):
    fresh = execute(spec_for("hawk", faults=FaultPlan.of(**CHAOS)), chaos_trace())
    cache = DiskCache(tmp_path)
    cache.store("r" * 40, fresh)
    loaded = cache.load("r" * 40)
    again = pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL)
    assert again == cache.path("r" * 40).read_bytes()


def test_columns_are_read_only_and_the_result_frozen(tmp_path):
    fresh = execute(spec_for("hawk", faults=FaultPlan.of(**CHAOS)), chaos_trace())
    cache = DiskCache(tmp_path)
    cache.store("k" * 40, fresh)
    loaded = cache.load("k" * 40)
    for result in (fresh, loaded, pickle.loads(pickle.dumps(fresh))):
        columns = (*result.job_columns, *result.utilization_columns)
        assert len(columns) == 14
        for column in columns:
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[:1] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.job_columns = fresh.job_columns


def test_hash_is_the_record_forms():
    """A result hashes as the frozen dataclass over records did: over its
    field values, records included, so equal results hash equal."""
    fresh = execute(spec_for("hawk", faults=FaultPlan.of(**CHAOS)), chaos_trace())
    loaded = pickle.loads(pickle.dumps(fresh))
    assert hash(fresh) == hash(loaded) == hash(
        (
            fresh.scheduler_name,
            fresh.n_workers,
            fresh.jobs,
            fresh.utilization,
            fresh.stealing,
            fresh.events_fired,
            fresh.end_time,
        )
    )
    assert len({fresh, loaded}) == 1
    assert np.array_equal(fresh.job_columns.job_id, loaded.job_columns.job_id)
