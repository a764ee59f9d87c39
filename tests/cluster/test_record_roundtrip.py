"""Result records through the disk cache: round trip and pinned text.

``JobRecord`` and ``UtilizationSample`` are named tuples.  Their repr is
part of every ``RunResult`` digest, so it is pinned here as a literal: a
later type change that alters the text fails this test, not only the
benchmark's reference digests.
"""

from __future__ import annotations

import pytest

from repro.cluster.faults import FaultPlan
from repro.cluster.job import JobClass
from repro.cluster.records import JobRecord, UtilizationSample
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


@pytest.mark.parametrize(
    "faults", [None, FaultPlan.of(**CHAOS)], ids=["plain", "faulted"]
)
def test_run_round_trips_through_disk_cache(tmp_path, faults):
    result = execute(spec_for("hawk", faults=faults), chaos_trace())
    retried = sum(job.retried_tasks for job in result.jobs)
    assert (retried > 0) == (faults is not None)
    cache = DiskCache(tmp_path)
    try:
        cache.store("k" * 40, result)
        loaded = cache.load("k" * 40)
    finally:
        cache.index.close()
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
