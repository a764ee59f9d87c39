"""Micro-benchmark: serial vs parallel vs warm-cache figure regeneration.

Times Figure 5 (quick scale, two load points) end to end through three
executor configurations:

* ``cold serial``  — empty caches, ``max_workers=1``: the historical path;
* ``cold parallel``— empty caches, a 2-worker pool;
* ``warm disk``    — a fresh executor (empty memo) over the disk cache the
  cold run populated: the repeated-figure / repeated-pytest-session case.

The acceptance bar is the cache tier: a warm repeat must be at least 5x
faster than the cold serial run.  Parallel timings are reported but not
asserted — on a single-core runner the pool cannot win.
"""

from __future__ import annotations

import shutil
import time

from repro.experiments import fig05_google
from repro.experiments.parallel import DiskCache, SweepExecutor, set_executor
from repro.workloads.registry import quick_spec

TARGETS = (1.0, 0.5)


def _timed_run(executor):
    previous = set_executor(executor)
    try:
        start = time.perf_counter()
        result = fig05_google.run("quick", utilization_targets=TARGETS)
        return result, time.perf_counter() - start
    finally:
        set_executor(previous)
        executor.close()


def test_warm_cache_beats_cold_serial(tmp_path):
    quick_spec("google").trace(0)  # trace generation excluded from all timings
    cache_dir = tmp_path / "runcache"

    cold_result, cold_s = _timed_run(
        SweepExecutor(max_workers=1, disk_cache=DiskCache(cache_dir))
    )

    parallel_dir = tmp_path / "runcache-parallel"
    parallel_result, parallel_s = _timed_run(
        SweepExecutor(max_workers=2, disk_cache=DiskCache(parallel_dir))
    )

    warm_executor = SweepExecutor(max_workers=1, disk_cache=DiskCache(cache_dir))
    warm_result, warm_s = _timed_run(warm_executor)

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print()
    print(
        f"fig05(quick): cold serial {cold_s:.2f}s | cold parallel(2) "
        f"{parallel_s:.2f}s | warm disk cache {warm_s:.3f}s "
        f"({speedup:.0f}x vs cold serial)"
    )

    # Execution modes must agree bit-for-bit.
    assert parallel_result.rows == cold_result.rows
    assert warm_result.rows == cold_result.rows
    # Every run was served from disk, none recomputed...
    assert warm_executor.executions == 0
    assert warm_executor.disk_hits > 0
    # ...making the repeated figure run at least 5x faster.
    assert speedup >= 5.0, f"warm cache only {speedup:.1f}x faster"

    shutil.rmtree(tmp_path, ignore_errors=True)
