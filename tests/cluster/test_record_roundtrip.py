"""Result records through the disk cache: round trip and pinned text.

``JobRecord`` and ``UtilizationSample`` are named tuples.  Their repr is
part of every ``RunResult`` digest, so it is pinned here as a literal: a
later type change that alters the text fails this test, not only the
benchmark's reference digests.

A ``RunResult`` pickles in a flat form: its records travel as plain
tuples and are rebuilt into the record classes on load.  Blobs written
before that form, in the classes' default pickle form, must still load
equal: ``data/chaos_hawk_v4.pkl`` is one, pickled by that code.
"""

from __future__ import annotations

import pickle
import shutil
from pathlib import Path

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
from repro.experiments.parallel import CACHE_VERSION, DiskCache
from tests.cluster.test_faults import CHAOS, chaos_trace, spec_for

#: A hawk run under every fault family (``CHAOS`` on ``chaos_trace``),
#: pickled with ``pickle.HIGHEST_PROTOCOL`` by the records' default
#: pickle form, as ``DiskCache.store`` wrote it before the flat form.
OLD_BLOB = Path(__file__).parent / "data" / "chaos_hawk_v4.pkl"

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


# -- the flat pickle form ------------------------------------------------------
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


def test_pickle_carries_plain_rows_not_record_classes():
    result = execute(spec_for("hawk", faults=FaultPlan.of(**CHAOS)), chaos_trace())
    assert result.utilization and result.stealing.rounds
    assert b"JobRecord" in OLD_BLOB.read_bytes()
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"JobRecord" not in blob and b"UtilizationSample" not in blob


class _Forged:
    """Pickles as a flat-form result whose first job row is one short."""

    def __reduce__(self):
        result = execute(spec_for("hawk"), chaos_trace())
        _, args = result.__reduce__()
        jobs = (args[2][0][:-1],) + args[2][1:]
        return records._rebuild_run, args[:2] + (jobs,) + args[3:]


def test_rows_of_the_wrong_arity_fail_to_load():
    with pytest.raises(ValueError, match="JobRecord row of the wrong arity"):
        pickle.loads(pickle.dumps(_Forged()))


def test_blob_pickled_in_the_old_form_still_loads_equal(tmp_path):
    fresh = execute(spec_for("hawk", faults=FaultPlan.of(**CHAOS)), chaos_trace())
    with open(OLD_BLOB, "rb") as fh:
        old = pickle.load(fh)
    assert old == fresh
    assert repr(old) == repr(fresh)
    assert type(old.jobs[0]) is JobRecord
    # The disk cache serves it as is: the blob format moved, the cache
    # version did not.
    assert CACHE_VERSION == 4
    cache = DiskCache(tmp_path)
    cache.root.mkdir(parents=True)
    shutil.copyfile(OLD_BLOB, cache.path("b" * 40))
    assert cache.load("b" * 40) == fresh
