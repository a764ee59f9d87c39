"""Tests for the streaming executor core, fold, crash recovery and index."""

import multiprocessing
import os
import pickle
import signal
import sqlite3
import sys
import time

from repro.experiments.config import RunSpec
from repro.experiments.parallel import (
    CACHE_VERSION,
    DiskCache,
    SweepExecutor,
    cache_key,
)
from repro.experiments.report import progress_line
from repro.experiments.result_index import ResultIndex
from repro.experiments.sweeps import (
    ReplicatedPoint,
    SweepJob,
    _SweepFold,
    multi_sweep,
    sweep,
)
from repro.workloads.replication import replica_seeds
from repro.workloads.spec import JobSpec, Trace
from tests.conftest import TEST_CUTOFF, long_job, short_job

SPEC = RunSpec(scheduler="sparrow", n_workers=4, cutoff=TEST_CUTOFF)


def small_trace(name="stream-small"):
    jobs = [long_job(0, 0.0, 3)] + [short_job(i, float(i)) for i in range(1, 5)]
    return Trace(jobs, name=name)


def _point_pairs(n, duration=0.001):
    """n content-distinct single-task pairs (distinct job ids)."""
    return [
        (SPEC, Trace([JobSpec(i, 0.0, (duration,))], name=f"pt-{i}"))
        for i in range(n)
    ]


# -- synthetic pool-side run functions (module-level: must pickle) ------------
def _echo_run(spec, trace):
    """Instant synthetic run returning a deterministic payload."""
    return ("ran", trace.name)


def _encoded_sleep_run(spec, trace):
    """Sleep for the trace's encoded duration, then echo it."""
    duration = next(iter(trace)).task_durations[0]
    time.sleep(duration)
    return ("slept", trace.name)


def _crash_once_run(spec, trace):
    """SIGKILL the hosting process the first time a crash trace is seen.

    The crash point's trace name carries a marker-file path; O_EXCL makes
    the kill fire exactly once, so the serial re-run after pool recovery
    completes normally.
    """
    name = trace.name
    if name.startswith("crash:"):
        marker = name.split(":", 1)[1]
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    return ("ran", name)


# -- streamed vs batch byte-identity ------------------------------------------
def test_stream_results_byte_identical_to_serial_path():
    """Out-of-order pool completion must not change a single result byte."""
    trace = small_trace()
    hawk = RunSpec(
        scheduler="hawk",
        n_workers=1,
        cutoff=TEST_CUTOFF,
        short_partition_fraction=0.25,
    )
    sparrow = RunSpec(scheduler="sparrow", n_workers=1, cutoff=TEST_CUTOFF)
    serial = SweepExecutor(max_workers=1, disk_cache=None)
    streamed = SweepExecutor(max_workers=2, disk_cache=None)
    try:
        reference = sweep(trace, (4, 6), hawk, sparrow, executor=serial)
        points = sweep(trace, (4, 6), hawk, sparrow, executor=streamed)
    finally:
        streamed.close()
    assert streamed.executions == 4
    assert points == reference
    # Every underlying RunResult round-trips to the exact same bytes
    # whether it ran in-process or crossed a pool boundary.
    for streamed_point, serial_point in zip(points, reference):
        for ours, theirs in zip(streamed_point.replicas, serial_point.replicas):
            assert pickle.dumps(ours.candidate) == pickle.dumps(theirs.candidate)
            assert pickle.dumps(ours.baseline) == pickle.dumps(theirs.baseline)
    # ...and the rendered figure text is identical too.
    from repro.experiments.report import ascii_table

    def render(pts):
        return ascii_table(
            ("nodes", "short p90", "long p90"),
            [
                (p.n_workers, p.cell("short_p90_ratio"), p.cell("long_p90_ratio"))
                for p in pts
            ],
        )

    assert render(points) == render(reference)


def test_run_many_reorders_shuffled_completions_to_submission_order():
    """Completions arrive reversed; run_many still returns submission order."""
    n = 4
    # Earlier submissions sleep longer, so completion order is reversed.
    pairs = [
        (SPEC, Trace([JobSpec(i, 0.0, ((n - i) * 0.15,))], name=f"rev-{i}"))
        for i in range(n)
    ]
    completion_order = []
    executor = SweepExecutor(
        max_workers=n,
        disk_cache=None,
        trace_shm=False,
        inflight=n,
        run_fn=_encoded_sleep_run,
    )
    try:
        collected = [None] * n
        for index, _key, result in executor.run_stream(
            pairs, on_result=lambda i, k, r: completion_order.append(i)
        ):
            collected[index] = result
    finally:
        executor.close()
    assert completion_order == list(reversed(range(n)))  # genuinely shuffled
    assert collected == [("slept", f"rev-{i}") for i in range(n)]
    assert executor.summary()["executions"] == n


# -- backpressure -------------------------------------------------------------
def test_inflight_never_exceeds_window_on_lazy_generator():
    window = 4
    n = 1000
    pulled = 0
    emitted = 0

    def lazy_pairs():
        nonlocal pulled
        for spec, trace in _point_pairs(n):
            # Backpressure invariant, observed from the producer side: at
            # most `window` pulled points may be unfinished when the
            # stream comes back for more.
            assert pulled - emitted <= window
            pulled += 1
            yield spec, trace

    executor = SweepExecutor(
        max_workers=2,
        disk_cache=None,
        trace_shm=False,
        inflight=window,
        run_fn=_echo_run,
    )

    def on_result(index, key, result):
        nonlocal emitted
        emitted += 1

    try:
        results = list(executor.run_stream(lazy_pairs(), on_result=on_result))
    finally:
        executor.close()
    assert len(results) == n
    assert pulled == n and emitted == n
    assert executor.max_inflight <= window
    assert executor.summary()["executions"] == n


def test_duplicate_keys_in_stream_emit_every_index():
    trace = small_trace()
    executor = SweepExecutor(max_workers=1, disk_cache=None)
    pairs = [(SPEC, trace), (SPEC, trace), (SPEC, trace)]
    emissions = list(executor.run_stream(pairs))
    assert executor.executions == 1
    assert [index for index, _, _ in emissions] == [0, 1, 2]
    assert emissions[0][2] is emissions[1][2] is emissions[2][2]


# -- incremental fold ---------------------------------------------------------
def test_incremental_fold_matches_batch_construction():
    """Folding completions in scrambled order equals the batch build."""
    trace = small_trace()
    hawk = RunSpec(
        scheduler="hawk",
        n_workers=1,
        cutoff=TEST_CUTOFF,
        short_partition_fraction=0.25,
        seed=5,
    )
    sparrow = RunSpec(scheduler="sparrow", n_workers=1, cutoff=TEST_CUTOFF, seed=5)
    sizes, n_seeds = (4, 6), 2
    executor = SweepExecutor(max_workers=1, disk_cache=None)
    reference = sweep(
        trace, sizes, hawk, sparrow, executor=executor, n_seeds=n_seeds
    )

    # Rebuild the same pair list the sweep used, in its layout.
    seeds = replica_seeds(hawk.seed, n_seeds)
    candidates, baselines = hawk.replicas(n_seeds), sparrow.replicas(n_seeds)
    pairs = []
    for n in sizes:
        for r in range(n_seeds):
            pairs.append((candidates[r].with_(n_workers=n), trace))
            pairs.append((baselines[r].with_(n_workers=n), trace))
    results = executor.run_many(pairs)

    seen = []
    fold = _SweepFold(sizes, seeds, on_point=lambda p: seen.append(p.n_workers))
    scrambled = [5, 0, 7, 2, 6, 1, 4, 3]  # all of size 6 before size 4 closes
    for index in scrambled:
        fold.add(index, results[index])
    assert fold.points == reference
    assert all(isinstance(p, ReplicatedPoint) for p in fold.points)
    assert seen == [6, 4]  # on_point fires in completion order, not size order


def test_sweep_on_point_observes_each_point_once():
    trace = small_trace()
    hawk = RunSpec(
        scheduler="hawk",
        n_workers=1,
        cutoff=TEST_CUTOFF,
        short_partition_fraction=0.25,
    )
    sparrow = RunSpec(scheduler="sparrow", n_workers=1, cutoff=TEST_CUTOFF)
    executor = SweepExecutor(max_workers=1, disk_cache=None)
    seen = []
    points = sweep(
        trace,
        (4, 6),
        hawk,
        sparrow,
        executor=executor,
        on_point=lambda p: seen.append(p),
    )
    assert seen == points  # serial path completes points in size order


def test_multi_sweep_equals_independent_sweeps():
    trace_a, trace_b = small_trace("wl-a"), small_trace("wl-b")
    # Distinct content so the two jobs cannot share cache keys.
    trace_b = Trace(list(trace_b) + [short_job(99, 30.0)], name="wl-b")
    hawk = RunSpec(
        scheduler="hawk",
        n_workers=1,
        cutoff=TEST_CUTOFF,
        short_partition_fraction=0.25,
    )
    sparrow = RunSpec(scheduler="sparrow", n_workers=1, cutoff=TEST_CUTOFF)
    independent_executor = SweepExecutor(max_workers=1, disk_cache=None)
    expected = [
        sweep(trace_a, (4, 6), hawk, sparrow, executor=independent_executor),
        sweep(trace_b, (5,), hawk, sparrow, executor=independent_executor),
    ]
    chained_executor = SweepExecutor(max_workers=1, disk_cache=None)
    seen = []
    chained = multi_sweep(
        [
            SweepJob(trace_a, (4, 6), hawk, sparrow),
            SweepJob(trace_b, (5,), hawk, sparrow),
        ],
        executor=chained_executor,
        on_point=lambda j, p: seen.append((j, p.n_workers)),
    )
    assert pickle.dumps(chained) == pickle.dumps(expected)
    assert chained_executor.executions == 6  # 2 sizes*2 + 1 size*2, no overlap
    assert seen == [(0, 4), (0, 6), (1, 5)]


# -- pool crash recovery ------------------------------------------------------
def test_worker_crash_mid_sweep_recovers_serially(tmp_path):
    marker = tmp_path / "crash-once"
    pairs = _point_pairs(6)
    # Point 2 kills its pool worker on first execution.
    crash_trace = Trace(
        [JobSpec(2, 0.0, (0.001,))], name=f"crash:{marker}"
    )
    pairs[2] = (SPEC, crash_trace)
    executor = SweepExecutor(
        max_workers=2,
        disk_cache=None,
        trace_shm=False,
        inflight=6,
        run_fn=_crash_once_run,
    )
    try:
        results = executor.run_many(pairs)
    finally:
        executor.close()
    assert marker.exists()  # the worker really died once
    assert executor.pool_rebuilds == 1
    assert executor.executions == 6  # every key ran exactly once overall
    assert results[2] == ("ran", f"crash:{marker}")
    assert [r for i, r in enumerate(results) if i != 2] == [
        ("ran", f"pt-{i}") for i in range(6) if i != 2
    ]


def test_pool_rebuilds_after_crash_for_later_misses(tmp_path):
    """The pool is rebuilt lazily and keeps serving after a recovery."""
    marker = tmp_path / "crash-once"
    first = _point_pairs(4)
    first[1] = (
        SPEC,
        Trace([JobSpec(1, 0.0, (0.001,))], name=f"crash:{marker}"),
    )
    executor = SweepExecutor(
        max_workers=2,
        disk_cache=None,
        trace_shm=False,
        run_fn=_crash_once_run,
    )
    try:
        executor.run_many(first)
        assert executor.pool_rebuilds == 1
        # A second wave of fresh keys goes through a new healthy pool.
        second = [
            (SPEC, Trace([JobSpec(100 + i, 0.0, (0.001,))], name=f"w2-{i}"))
            for i in range(4)
        ]
        results = executor.run_many(second)
    finally:
        executor.close()
    assert results == [("ran", f"w2-{i}") for i in range(4)]
    assert executor.pool_rebuilds == 1  # no further crashes
    assert executor.executions == 8  # 4 + 4, crash point re-run not double


# -- close() semantics --------------------------------------------------------
def test_close_cancels_queued_work_and_drains_inflight():
    pairs = [
        (SPEC, Trace([JobSpec(i, 0.0, (0.2,))], name=f"close-{i}"))
        for i in range(8)
    ]
    executor = SweepExecutor(
        max_workers=2,
        disk_cache=None,
        trace_shm=True,
        inflight=6,
        run_fn=_encoded_sleep_run,
    )
    stream = executor.run_stream(pairs)
    next(stream)  # first completion; several more are in flight
    assert executor._transport is not None  # traces went via shm
    executor.close()  # cancel queued, drain running, then unlink segments
    assert executor._pool is None
    assert executor._transport is None  # unlinked only after the drain
    stream.close()


# -- observability ------------------------------------------------------------
def test_progress_lines_behind_env_knob(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SWEEP_PROGRESS", "1")
    executor = SweepExecutor(max_workers=1, disk_cache=None)
    executor.run_many([(SPEC, small_trace("progress"))])
    err = capsys.readouterr().err
    assert "[sweep] point 1/1 done" in err
    assert "exec 1" in err
    monkeypatch.delenv("REPRO_SWEEP_PROGRESS")
    executor.run_many([(SPEC, small_trace("quiet"))])
    assert "[sweep]" not in capsys.readouterr().err


def test_progress_line_formatting():
    line = progress_line(3, 120, 4, memo_hits=1, disk_hits=2, executions=3)
    assert line == "[sweep] point 3/120 done, in-flight 4, memo 1, disk 2, exec 3"
    assert "point 7/? done" in progress_line(7, None, 2)


def test_summary_counters():
    executor = SweepExecutor(max_workers=1, disk_cache=None)
    trace = small_trace("summary")
    executor.run_many([(SPEC, trace)])
    executor.run_many([(SPEC, trace)])
    summary = executor.summary()
    assert summary["executions"] == 1
    assert summary["memo_hits"] == 1
    assert summary["disk_hits"] == 0
    assert summary["pool_rebuilds"] == 0
    assert summary["max_inflight"] == 0  # serial path never enters the pool


# -- the persistent result index ---------------------------------------------
def test_index_records_and_orders_entries(tmp_path):
    index = ResultIndex(tmp_path)
    index.record("v3/aaa.pkl", 100, 10.0, {"policy": "hawk", "seed": 3})
    index.record("v3/bbb.pkl", 200, 5.0)
    assert index.count() == 2
    assert index.total_bytes() == 300
    assert index.lookup("v3/aaa.pkl") == (100, 10.0)
    # LRU order: oldest mtime first.
    assert [rel for _, rel, _ in index.lru_entries()] == [
        "v3/bbb.pkl",
        "v3/aaa.pkl",
    ]
    index.touch("v3/bbb.pkl", 20.0)
    assert [rel for _, rel, _ in index.lru_entries()] == [
        "v3/aaa.pkl",
        "v3/bbb.pkl",
    ]
    index.remove(["v3/aaa.pkl"])
    assert index.count() == 1


def test_index_provenance_recorded_at_store_time(tmp_path):
    cache = DiskCache(tmp_path)
    executor = SweepExecutor(max_workers=1, disk_cache=cache)
    trace = small_trace("prov")
    executor.run_one(SPEC, trace)
    rel = f"v{CACHE_VERSION}/{cache_key(SPEC, trace)}.pkl"
    policy, seed, spec_dig, trace_dig = cache.index.provenance(rel)
    assert policy == "sparrow"
    assert seed == SPEC.seed
    assert "scheduler='sparrow'" in spec_dig
    assert trace_dig == trace.content_digest()


def test_index_reads_never_create_the_database(tmp_path):
    index = ResultIndex(tmp_path)
    assert index.lookup("v3/x.pkl") is None
    assert index.total_bytes() is None
    assert index.lru_entries() is None
    assert index.count() == 0
    assert not (tmp_path / "index.db").exists()


def test_rebuild_from_blobs_migrates_preindex_cache(tmp_path):
    """A cache written before the index existed indexes itself on demand."""
    cache = DiskCache(tmp_path)
    executor = SweepExecutor(max_workers=1, disk_cache=cache)
    trace = small_trace("migrate")
    executor.run_one(SPEC, trace)
    # Simulate a pre-index cache: no database, and no WAL sidecars.
    cache.index.close()
    for name in ("index.db", "index.db-wal", "index.db-shm"):
        (tmp_path / name).unlink(missing_ok=True)

    adopted = DiskCache(tmp_path)
    assert adopted.rebuild_index() == 1
    rel = f"v{CACHE_VERSION}/{cache_key(SPEC, trace)}.pkl"
    size, _ = adopted.index.lookup(rel)
    assert size == cache.path(cache_key(SPEC, trace)).stat().st_size
    # Provenance is unrecoverable from a blob (the key is a one-way hash).
    assert adopted.index.provenance(rel) == (None, None, None, None)
    assert adopted.total_bytes() == size


def test_warm_pass_opens_one_index_connection(tmp_path, monkeypatch):
    """The index keeps its connection: 30 disk hits, one ``connect``."""
    pairs = [
        (SPEC, Trace([short_job(i, 0.0)], name=f"warm-{i}")) for i in range(30)
    ]
    SweepExecutor(max_workers=1, disk_cache=DiskCache(tmp_path)).run_many(pairs)
    connects = []
    real_connect = sqlite3.connect

    def counting_connect(*args, **kwargs):
        connects.append(args)
        return real_connect(*args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    warm = SweepExecutor(max_workers=1, disk_cache=DiskCache(tmp_path))
    warm.run_many(pairs)
    assert warm.disk_hits == 30
    assert len(connects) == 1


def _store_from_fork_child(cache, key, result):
    """Fork child: store through the cache object inherited from the parent."""
    cache.store(key, result)
    index = cache.index
    own = index._pid == os.getpid()  # opened its own connection
    sys.exit(0 if own and index.available and index.count() == 2 else 3)


def test_fork_child_and_parent_write_one_index(tmp_path):
    """A forked child must not reuse the parent's open index connection."""
    cache = DiskCache(tmp_path)
    executor = SweepExecutor(max_workers=1, disk_cache=cache)
    trace = small_trace("fork-parent")
    result = executor.run_one(SPEC, trace)
    assert cache.index._conn is not None  # the parent holds it open
    child_key = "0" * 40
    child = multiprocessing.get_context("fork").Process(
        target=_store_from_fork_child, args=(cache, child_key, result)
    )
    child.start()
    child.join(60)
    assert child.exitcode == 0  # own connection, available, both rows
    assert cache.index.available
    rels = {
        f"v{CACHE_VERSION}/{cache_key(SPEC, trace)}.pkl",
        f"v{CACHE_VERSION}/{child_key}.pkl",
    }
    assert {rel for _, rel, _ in cache.index.lru_entries()} == rels
    # WAL sidecars sit beside the database but are never blobs.
    assert (tmp_path / "index.db-wal").exists()
    scanned = {cache._rel(path) for _, path, _ in cache._scan()}
    assert scanned == rels
    assert cache.rebuild_index() == len(scanned)
    assert {rel for _, rel, _ in cache.index.lru_entries()} == scanned
    assert cache.total_bytes() == sum(size for _, _, size in cache._scan())
    assert cache.index.available


def test_reconcile_drops_rows_for_deleted_blobs(tmp_path):
    cache = DiskCache(tmp_path)
    executor = SweepExecutor(max_workers=1, disk_cache=cache)
    trace = small_trace("dropped")
    executor.run_one(SPEC, trace)
    cache.path(cache_key(SPEC, trace)).unlink()  # delete behind the index

    fresh = DiskCache(tmp_path)
    assert fresh.total_bytes() == 0  # reconciled: stale row dropped
    assert fresh.index.count() == 0


def test_cache_degrades_gracefully_without_sqlite(tmp_path):
    """A broken index must never break the cache — scans take over."""
    (tmp_path / "index.db").mkdir()  # a directory: sqlite cannot open it
    cache = DiskCache(tmp_path, max_bytes=10_000_000)
    executor = SweepExecutor(max_workers=1, disk_cache=cache)
    trace = small_trace("no-sqlite")
    res = executor.run_one(SPEC, trace)
    assert not cache.index.available
    assert cache.total_bytes() > 0  # directory-scan fallback
    assert cache.enforce_cap() == 0
    reader = SweepExecutor(
        max_workers=1, disk_cache=DiskCache(tmp_path)
    )
    assert reader.run_one(SPEC, trace) == res
    assert reader.disk_hits == 1


def test_eviction_removes_index_rows(tmp_path):
    cache = DiskCache(tmp_path)
    executor = SweepExecutor(max_workers=1, disk_cache=cache)
    traces = [
        Trace([short_job(80 + i, float(i))], name=f"evict{i}") for i in range(3)
    ]
    keys = []
    for i, trace in enumerate(traces):
        executor.run_one(SPEC, trace)
        keys.append(cache_key(SPEC, trace))
        os.utime(cache.path(keys[-1]), (2000.0 + i, 2000.0 + i))
    entry_size = cache.path(keys[0]).stat().st_size

    capped = DiskCache(tmp_path, max_bytes=entry_size + entry_size // 2)
    removed = capped.enforce_cap()
    assert removed == 2
    assert capped.index.count() == 1
    assert [rel for _, rel, _ in capped.index.lru_entries()] == [
        f"v{CACHE_VERSION}/{keys[2]}.pkl"
    ]
