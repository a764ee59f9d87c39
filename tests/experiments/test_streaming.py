"""Tests for the streaming executor core, sweeps, crash recovery and index."""

import itertools
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import RunSpec, execute
from repro.experiments.parallel import (
    DiskCache,
    SweepExecutor,
    cache_key,
)
from repro.experiments.report import progress_line
from repro.experiments.result_index import ResultIndex
from repro.experiments.sweeps import SweepJob, multi_sweep, sweep
from repro.workloads import registry
from repro.workloads.registry import WorkloadSpec, register_workload
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


def _completion_order(durations, max_workers, inflight=None):
    """Stream one sleep point per duration; the submission indices in
    the order the stream emits them."""
    pairs = [
        (SPEC, Trace([JobSpec(i, 0.0, (duration,))], name=f"sleep-{i}"))
        for i, duration in enumerate(durations)
    ]
    completion_order = []
    executor = SweepExecutor(
        max_workers=max_workers,
        disk_cache=None,
        trace_shm=False,
        inflight=inflight,
        run_fn=_encoded_sleep_run,
    )
    try:
        collected = [None] * len(pairs)
        for index, _key, result in executor.run_stream(pairs):
            completion_order.append(index)
            collected[index] = result
    finally:
        executor.close()
    assert collected == [("slept", f"sleep-{i}") for i in range(len(pairs))]
    assert executor.summary()["executions"] == len(pairs)
    return completion_order


def test_run_many_reorders_shuffled_completions_to_submission_order():
    """Completions arrive out of order; each result still lands at its
    submission index.

    With a worker per point, earlier submissions sleep longer, so
    completions arrive reversed.  With two workers, a straggler
    submitted first holds one while the other drains every fast point,
    so each fast point is emitted before the straggler: a stream never
    waits at a batch barrier.
    """
    n = 4
    reversed_order = _completion_order(
        [(n - i) * 0.15 for i in range(n)], max_workers=n, inflight=n
    )
    assert reversed_order == list(reversed(range(n)))  # genuinely shuffled
    straggler_last = _completion_order([1.0] + [0.02] * 10, max_workers=2)
    assert straggler_last[-1] == 0
    assert sorted(straggler_last) == list(range(11))


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
    results = []
    try:
        for emission in executor.run_stream(lazy_pairs()):
            emitted += 1
            results.append(emission)
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


# -- sweeps ------------------------------------------------------------------
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
    chained = multi_sweep(
        [
            SweepJob(trace_a, (4, 6), hawk, sparrow),
            SweepJob(trace_b, (5,), hawk, sparrow),
        ],
        executor=chained_executor,
    )
    assert pickle.dumps(chained) == pickle.dumps(expected)
    assert chained_executor.executions == 6  # 2 sizes*2 + 1 size*2, no overlap
    assert [[p.n_workers for p in points] for points in chained] == [[4, 6], [5]]


def test_multi_sweep_builds_a_workload_trace_only_when_the_stream_reaches_it():
    """A later job's WorkloadSpec trace is built after every earlier run."""
    log = []

    @register_workload("test-lazy-sweep", cutoff=TEST_CUTOFF)
    def lazy_trace(params, seed):
        log.append(("build", seed))
        return small_trace("lazy-b")

    def logged_execute(spec, trace):
        log.append(("run", trace.name))
        return execute(spec, trace)

    hawk = RunSpec(
        scheduler="hawk",
        n_workers=1,
        cutoff=TEST_CUTOFF,
        short_partition_fraction=0.25,
    )
    sparrow = RunSpec(scheduler="sparrow", n_workers=1, cutoff=TEST_CUTOFF)
    executor = SweepExecutor(max_workers=1, disk_cache=None, run_fn=logged_execute)
    try:
        points = multi_sweep(
            [
                SweepJob(small_trace("lazy-a"), (4, 6), hawk, sparrow),
                SweepJob(WorkloadSpec("test-lazy-sweep"), (5,), hawk, sparrow),
            ],
            executor=executor,
        )
    finally:
        registry.unregister("test-lazy-sweep")
    assert log == (
        [("run", "lazy-a")] * 4 + [("build", hawk.seed)] + [("run", "lazy-b")] * 2
    )
    assert [[p.n_workers for p in job] for job in points] == [[4, 6], [5]]


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


# -- the in-memory result index ---------------------------------------------
def _blob(root, rel, size, mtime):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"x" * size)
    os.utime(path, (mtime, mtime))


def _on_disk(root):
    """{rel-path: size} of every ``*.pkl`` blob under ``root``."""
    return {
        str(path.relative_to(root)): path.stat().st_size
        for path in root.rglob("*.pkl")
    }


def test_index_records_and_orders_entries(tmp_path):
    _blob(tmp_path, "aaa.pkl", 100, 10.0)
    _blob(tmp_path, "bbb.pkl", 200, 5.0)
    (tmp_path / "ccc.pkl.123.tmp").write_bytes(b"x" * 7)  # not a blob
    _blob(tmp_path, "sub/ddd.pkl", 400, 1.0)  # not in the directory
    index = ResultIndex(tmp_path)
    # Before the first size query the index has not listed the directory,
    # so writes are no-ops: the listing finds the blobs themselves.
    index.record("zzz.pkl", 999)
    index.touch("aaa.pkl")
    index.remove(["bbb.pkl"])
    assert index.total_bytes() == 300
    # LRU order: oldest mtime first.
    assert index.lru_entries() == [("bbb.pkl", 200), ("aaa.pkl", 100)]
    index.touch("bbb.pkl")
    assert index.lru_entries() == [("aaa.pkl", 100), ("bbb.pkl", 200)]
    index.record("aaa.pkl", 120)  # overwritten: new size, most recent
    assert index.lru_entries() == [("bbb.pkl", 200), ("aaa.pkl", 120)]
    assert index.total_bytes() == 320
    index.remove(["aaa.pkl", "gone.pkl"])
    assert index.lru_entries() == [("bbb.pkl", 200)]
    assert index.total_bytes() == 200


def test_store_and_hit_stamp_the_blob_at_full_resolution(tmp_path, monkeypatch):
    """LRU recency lives in the blob's mtime, to the nanosecond.

    The kernel's default ``utime`` clock is coarse, so two blobs used
    within one tick would tie and a later walk could not order them.
    """
    result = SweepExecutor(max_workers=1, disk_cache=None).run_one(
        SPEC, small_trace("stamp")
    )
    ticks = itertools.count(1_700_000_000_123_456_789)
    monkeypatch.setattr(time, "time_ns", lambda: next(ticks))
    cache = DiskCache(tmp_path)
    cache.store("a" * 40, result)
    cache.store("b" * 40, result)
    assert cache.load("a" * 40) == result
    assert cache.path("a" * 40).stat().st_mtime_ns == 1_700_000_000_123_456_791
    assert cache.path("b" * 40).stat().st_mtime_ns == 1_700_000_000_123_456_790
    assert [name for name, _ in DiskCache(tmp_path).index.lru_entries()] == [
        f"{'b' * 40}.pkl", f"{'a' * 40}.pkl"
    ]


def test_index_walks_the_cache_only_when_capped(tmp_path, monkeypatch):
    """Opening a cache lists its root once, for stale directories.  The
    index lists the live directory only under a cap, once for a whole
    capped cold pass."""
    pairs = [
        (SPEC, Trace([short_job(i, 0.0)], name=f"warm-{i}")) for i in range(30)
    ]
    walked = []
    real_scandir = os.scandir

    def counting_scandir(path="."):
        walked.append(os.fspath(path))
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", counting_scandir)
    plain = tmp_path / "plain"
    SweepExecutor(max_workers=1, disk_cache=DiskCache(plain)).run_many(pairs)
    warm = SweepExecutor(max_workers=1, disk_cache=DiskCache(plain))
    warm.run_many(pairs)
    assert warm.disk_hits == 30
    assert walked == [str(plain)] * 2

    entry_size = max(_on_disk(plain).values())
    walked.clear()
    capped = DiskCache(tmp_path / "capped", max_bytes=10 * entry_size)
    SweepExecutor(max_workers=1, disk_cache=capped).run_many(pairs)
    assert capped.evictions > 0
    assert walked == [str(tmp_path / "capped"), str(capped.root)]
    assert capped.total_bytes() == sum(_on_disk(capped.root).values())


def test_import_leaves_sqlite_unloaded():
    code = "import sys, repro.experiments; print('sqlite3' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "module, unloaded",
    [
        # A single run's import path skips the pool, the sweeps and metrics.
        (
            "repro.experiments.config",
            (
                "multiprocessing",
                "concurrent.futures",
                "repro.experiments.parallel",
                "repro.experiments.ledger",
                "repro.metrics",
            ),
        ),
        # The service handles traces but generates none.
        (
            "repro.service.server",
            ("repro.workloads.google", "repro.metrics", "repro.experiments"),
        ),
    ],
)
def test_import_leaves_unused_layers_unloaded(module, unloaded):
    code = (
        f"import sys, {module}; "
        f"print([m for m in {unloaded!r} if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    """Lazily exported names still import from their packages."""
    code = (
        "import repro, repro.experiments, repro.workloads, repro.metrics\n"
        "for mod in (repro, repro.experiments, repro.workloads, repro.metrics):\n"
        "    for name in mod.__all__:\n"
        "        getattr(mod, name)\n"
        "from repro.experiments import RunSpec, get_executor, fig05_google\n"
        "print('ok')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.parametrize(
    "package", ["repro", "repro.experiments", "repro.workloads"]
)
def test_lazy_names_have_type_checking_imports(package):
    """Each lazily exported name has an ``if TYPE_CHECKING:`` import from
    the module its lazy table names, so mypy sees its real type."""
    import ast
    import importlib
    from pathlib import Path

    module = importlib.import_module(package)
    tree = ast.parse(Path(module.__file__).read_text())
    typed = {}
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for imp in node.body:
                assert isinstance(imp, ast.ImportFrom)
                typed.update((a.name, imp.module) for a in imp.names)
    assert typed == module._LAZY


def test_reconcile_drops_rows_for_deleted_blobs(tmp_path):
    """Blobs deleted behind a cache are gone from its index."""
    cache = DiskCache(tmp_path)
    executor = SweepExecutor(max_workers=1, disk_cache=cache)
    trace = small_trace("dropped")
    executor.run_one(SPEC, trace)
    key = cache_key(SPEC, trace)
    assert cache.total_bytes() == cache.path(key).stat().st_size
    cache.path(key).unlink()  # delete behind the index

    assert DiskCache(tmp_path).total_bytes() == 0  # a fresh walk
    assert cache.load(key) is None  # the miss drops the entry
    assert cache.total_bytes() == 0
    assert cache.index.lru_entries() == []


def test_cache_degrades_gracefully_without_sqlite(tmp_path, monkeypatch):
    """The cache never touches SQLite, and ignores an old ``index.db``.

    Older checkouts kept a SQLite index beside the blobs; its database
    file (or a directory of that name) and WAL sidecars are not blobs.
    """
    monkeypatch.setitem(sys.modules, "sqlite3", None)  # import would fail
    trace = small_trace("no-sqlite")
    for root, leftovers in (
        (tmp_path / "file", ("index.db", "index.db-wal", "index.db-shm")),
        (tmp_path / "dir", ()),
    ):
        root.mkdir()
        for name in leftovers:
            (root / name).write_bytes(b"SQLite format 3\0" + b"x" * 4096)
        if not leftovers:
            (root / "index.db").mkdir()
        cache = DiskCache(root, max_bytes=10_000_000)
        res = SweepExecutor(max_workers=1, disk_cache=cache).run_one(SPEC, trace)
        blob = cache.path(cache_key(SPEC, trace)).stat().st_size
        assert cache.total_bytes() == blob
        assert cache.enforce_cap() == 0
        reader = SweepExecutor(max_workers=1, disk_cache=DiskCache(root))
        assert reader.run_one(SPEC, trace) == res
        assert reader.disk_hits == 1
        assert DiskCache(root, max_bytes=1).enforce_cap() == 1
        assert _on_disk(root) == {}


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
    kept_size = cache.path(keys[2]).stat().st_size

    capped = DiskCache(tmp_path, max_bytes=entry_size + entry_size // 2)
    removed = capped.enforce_cap()
    assert removed == 2
    kept = f"{keys[2]}.pkl"
    assert capped.index.lru_entries() == [(kept, kept_size)]
    assert capped.total_bytes() == kept_size
    assert _on_disk(capped.root) == {kept: kept_size}


_RESULTS: list = []


def _results():
    """Six stored-result candidates of different pickled sizes."""
    if not _RESULTS:
        for n in range(1, 7):
            trace = Trace([short_job(i, float(i), 1 + n % 3) for i in range(n)])
            _RESULTS.append(SweepExecutor(max_workers=1, disk_cache=None).run_one(
                SPEC, trace
            ))
    return _RESULTS


_OPS = st.tuples(
    # Stores and hits weigh double: their order is what LRU tracks.
    st.sampled_from(["store", "store", "load", "load", "miss", "cap"]),
    st.integers(0, 2),  # which key
    st.integers(0, 5),  # which result a store writes
)


@settings(max_examples=80, deadline=None)
@given(
    stale=st.lists(
        st.tuples(st.integers(1, 4000), st.integers(0, 2)), max_size=4
    ),
    cap_share=st.floats(0.2, 4.0),
    ops=st.lists(_OPS, min_size=1, max_size=20),
)
def test_index_agrees_with_disk_under_random_operations(
    tmp_path_factory, stale, cap_share, ops
):
    """Stores, hits, misses and evictions keep the index exact."""
    root = tmp_path_factory.mktemp("prop")
    for i, (size, age) in enumerate(stale):  # older checkouts' blobs
        _blob(root, f"v{i % 2}/old{i}.pkl", size, 1000.0 + age)
    results = _results()
    sizes = [len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)) for r in results]
    cap = max(1, int(cap_share * max(sizes)))
    cache = DiskCache(root, max_bytes=cap)
    assert _on_disk(root) == {}  # the open purged them
    assert cache.purged == len({i % 2 for i in range(len(stale))})
    keys = [f"{k:040x}" for k in range(3)]
    stored: dict[str, object] = {}
    just_stored = None
    enforced = False
    for op, k, r in ops:
        key = keys[k]
        if op == "store":
            cache.store(key, results[r])
            stored[key] = results[r]
            just_stored, enforced = f"{key}.pkl", True
        elif op == "load":
            hit = cache.load(key)
            if cache.path(key).exists():
                assert hit == stored[key]
            else:
                assert hit is None
        elif op == "miss":
            assert cache.load("f" * 40) is None
        else:
            cache.enforce_cap()
            just_stored, enforced = None, True
        disk = _on_disk(cache.root)
        total = cache.total_bytes()
        assert total == sum(disk.values())
        assert dict(cache.index.lru_entries()) == disk
        if enforced:
            assert total <= cap or list(disk) == [just_stored]
        fresh = DiskCache(root, max_bytes=cap)
        assert fresh.total_bytes() == total
        assert fresh.index.lru_entries() == cache.index.lru_entries()
