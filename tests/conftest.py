"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterEngine, EngineConfig
from repro.experiments.parallel import DiskCache, SweepExecutor, set_executor
from repro.schedulers import (
    CentralizedScheduler,
    HawkScheduler,
    SparrowScheduler,
    SplitScheduler,
    WorkStealing,
)
from repro.workloads.spec import JobSpec, Trace

#: Cutoff used by the hand-built test traces: tasks of 10 s are short,
#: tasks of 1000 s are long.
TEST_CUTOFF = 100.0


@pytest.fixture(autouse=True, scope="session")
def _isolated_default_executor(tmp_path_factory):
    """Point the default executor at a throwaway disk cache.

    Unit tests assert behavior of the code under test; serving them
    stale results from the developer's persistent ``benchmarks/.runcache``
    (written by a *previous* revision of the engine) could mask
    regressions.  The benchmark harness, by contrast, keeps the
    persistent cache on purpose — cross-session reuse is the feature.
    """
    cache_dir = tmp_path_factory.mktemp("runcache")
    previous = set_executor(SweepExecutor(disk_cache=DiskCache(cache_dir)))
    yield
    set_executor(previous)


@pytest.fixture
def uncached_executor():
    """A fresh executor with no disk tier: every run is made, none read.

    For checks on fresh runs, where a warm cache must not stand in for
    the run; the pool size follows ``REPRO_EXECUTOR_WORKERS``.
    """
    executor = SweepExecutor(disk_cache=None)
    yield executor
    executor.close()


def job(job_id: int, submit: float, *durations: float) -> JobSpec:
    return JobSpec(job_id, submit, tuple(float(d) for d in durations))


def short_job(job_id: int, submit: float, tasks: int = 4) -> JobSpec:
    return job(job_id, submit, *([10.0] * tasks))


def long_job(job_id: int, submit: float, tasks: int = 4) -> JobSpec:
    return job(job_id, submit, *([1000.0] * tasks))


@pytest.fixture
def tiny_trace() -> Trace:
    """Two long jobs then a stream of short jobs — provokes queueing."""
    jobs = [long_job(0, 0.0, 6), long_job(1, 1.0, 6)]
    jobs.extend(short_job(10 + i, 2.0 + i, 3) for i in range(8))
    return Trace(jobs, name="tiny")


@pytest.fixture
def short_only_trace() -> Trace:
    return Trace([short_job(i, float(i)) for i in range(6)], name="shorts")


@pytest.fixture
def long_only_trace() -> Trace:
    return Trace([long_job(i, float(i)) for i in range(4)], name="longs")


def make_engine(
    scheduler_name: str,
    n_workers: int = 8,
    short_fraction: float = 0.25,
    seed: int = 0,
    cutoff: float = TEST_CUTOFF,
    steal_cap: int = 10,
    estimate=None,
) -> ClusterEngine:
    """Build a small engine for the named scheduler policy."""
    if scheduler_name == "sparrow":
        cluster = Cluster(n_workers)
        return ClusterEngine(
            cluster,
            SparrowScheduler(),
            EngineConfig(cutoff=cutoff, seed=seed),
            estimate=estimate,
        )
    if scheduler_name == "centralized":
        cluster = Cluster(n_workers)
        return ClusterEngine(
            cluster,
            CentralizedScheduler(),
            EngineConfig(cutoff=cutoff, seed=seed),
            estimate=estimate,
        )
    if scheduler_name == "split":
        cluster = Cluster(n_workers, short_partition_fraction=short_fraction)
        return ClusterEngine(
            cluster,
            SplitScheduler(),
            EngineConfig(cutoff=cutoff, seed=seed),
            estimate=estimate,
        )
    if scheduler_name == "hawk":
        cluster = Cluster(n_workers, short_partition_fraction=short_fraction)
        return ClusterEngine(
            cluster,
            HawkScheduler(),
            EngineConfig(cutoff=cutoff, seed=seed),
            stealing=WorkStealing(cap=steal_cap),
            estimate=estimate,
        )
    raise ValueError(scheduler_name)
