"""Tests for the sweep executor and the two-tier run cache."""

import asyncio
import os
import pickle
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments import parallel
from repro.experiments.config import RunSpec
from repro.experiments.parallel import (
    CACHE_VERSION,
    DISK_CACHE_ENV,
    DISK_CACHE_MAX_MB_ENV,
    PROGRESS_ENV,
    WORKERS_ENV,
    DiskCache,
    SweepExecutor,
    _max_bytes_from_env,
    cache_key,
    code_digest,
    get_executor,
    replica_pairs,
    set_executor,
)
from repro.experiments.sweeps import sweep
from repro.workloads.spec import JobSpec, Trace
from tests.conftest import TEST_CUTOFF, long_job, short_job

SPEC = RunSpec(scheduler="sparrow", n_workers=4, cutoff=TEST_CUTOFF)


def small_trace(name="cache-small"):
    jobs = [long_job(0, 0.0, 3)] + [short_job(i, float(i)) for i in range(1, 5)]
    return Trace(jobs, name=name)


@pytest.fixture
def executor(tmp_path):
    """A serial executor with an isolated on-disk cache."""
    return SweepExecutor(max_workers=1, disk_cache=DiskCache(tmp_path))


# -- cache keying ------------------------------------------------------------
def test_same_shape_different_durations_get_distinct_results(executor):
    """Regression: the old (name, len, rounded totals) trace key collided.

    Both traces have the same name, job count, total task-seconds,
    horizon and first submit time; only the per-job durations differ.
    """
    a = Trace(
        [JobSpec(0, 0.0, (10.0, 30.0)), JobSpec(1, 5.0, (20.0,))], name="twin"
    )
    b = Trace(
        [JobSpec(0, 0.0, (20.0, 20.0)), JobSpec(1, 5.0, (20.0,))], name="twin"
    )
    assert a.total_task_seconds == b.total_task_seconds
    assert a.horizon == b.horizon and len(a) == len(b)
    assert cache_key(SPEC, a) != cache_key(SPEC, b)
    res_a = executor.run_one(SPEC, a)
    res_b = executor.run_one(SPEC, b)
    assert executor.executions == 2  # no silent sharing
    assert res_a != res_b


def test_trace_digest_ignores_name_but_not_content():
    a = small_trace("one")
    b = small_trace("two")
    assert a.content_digest() == b.content_digest()
    c = Trace(list(a) + [short_job(99, 50.0)], name="one")
    assert c.content_digest() != a.content_digest()


def test_cache_key_distinguishes_specs_and_estimate_tags():
    trace = small_trace()
    assert cache_key(SPEC, trace) != cache_key(SPEC.with_(n_workers=5), trace)
    assert cache_key(SPEC, trace) != cache_key(
        SPEC.with_(estimate=lambda s: 1.0, estimate_tag="other"), trace
    )


# -- executor behaviour ------------------------------------------------------
def test_duplicate_submissions_execute_once(executor):
    trace = small_trace()
    results = executor.run_many([(SPEC, trace), (SPEC, trace)])
    assert executor.executions == 1
    assert results[0] is results[1]


def test_parallel_and_serial_results_identical(tmp_path):
    """parallel=N must be bit-identical to the serial path."""
    trace = small_trace()
    hawk = RunSpec(
        scheduler="hawk",
        n_workers=1,
        cutoff=TEST_CUTOFF,
        short_partition_fraction=0.25,
    )
    sparrow = RunSpec(scheduler="sparrow", n_workers=1, cutoff=TEST_CUTOFF)
    serial = SweepExecutor(max_workers=1, disk_cache=None)
    parallel = SweepExecutor(max_workers=2, disk_cache=None)
    try:
        points_serial = sweep(trace, (4, 6), hawk, sparrow, executor=serial)
        points_parallel = sweep(trace, (4, 6), hawk, sparrow, executor=parallel)
    finally:
        parallel.close()
    assert parallel.executions == 4
    assert points_serial == points_parallel  # full RunResult equality


def test_unpicklable_estimate_falls_back_to_in_process(tmp_path):
    """Closure estimators cannot cross the pool; they still execute."""
    trace = small_trace()
    specs = [
        SPEC.with_(estimate=lambda s, k=k: 10.0 * (k + 1), estimate_tag=f"c{k}")
        for k in range(2)
    ]
    executor = SweepExecutor(max_workers=2, disk_cache=None)
    try:
        results = executor.run_many([(s, trace) for s in specs])
    finally:
        executor.close()
    assert executor.executions == 2
    assert all(len(r.jobs) == len(trace) for r in results)


# -- the persistent tier -----------------------------------------------------
def test_disk_cache_survives_new_executor(tmp_path):
    trace = small_trace()
    first = SweepExecutor(max_workers=1, disk_cache=DiskCache(tmp_path))
    res = first.run_one(SPEC, trace)
    assert (first.executions, first.disk_hits) == (1, 0)

    second = SweepExecutor(max_workers=1, disk_cache=DiskCache(tmp_path))
    loaded = second.run_one(SPEC, trace)
    assert (second.executions, second.disk_hits) == (0, 1)
    assert loaded == res  # value-identical across "sessions"
    # and memoized for identity within the new session
    assert second.run_one(SPEC, trace) is loaded


# Renders one quick figure point and the quick Figure 15 in a fresh
# process; Figure 15 (one single-size SweepJob per steal cap) carries
# multi_sweep's per-job slicing of one stream through the pool and disk.
WARM_CACHE_RENDER = """
import sys
from repro.experiments import fig05_google, fig15_stealing_cap, get_executor
print(fig05_google.run("quick", utilization_targets=(1.0,)).render())
print(fig15_stealing_cap.run("quick").render())
print(f"executions={get_executor().executions}", file=sys.stderr)
"""


def render_in_fresh_process(cache_dir):
    """Run :data:`WARM_CACHE_RENDER`; returns (stdout, executions)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"),
        REPRO_EXECUTOR_WORKERS="2",
        REPRO_RUNCACHE_DIR=str(cache_dir),
    )
    proc = subprocess.run(
        [sys.executable, "-c", WARM_CACHE_RENDER],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    executions = re.search(r"^executions=(\d+)$", proc.stderr, re.M)
    assert executions, proc.stderr
    return proc.stdout, int(executions.group(1))


def test_warm_cache_across_processes_renders_the_same_bytes(tmp_path):
    """A second process reads every result back from disk: zero runs.

    The column RunResult pickle form crosses pool IPC, the disk and a new
    process, and the render must not change on the way.
    """
    cold, cold_runs = render_in_fresh_process(tmp_path)
    warm, warm_runs = render_in_fresh_process(tmp_path)
    assert cold_runs > 0
    assert warm_runs == 0
    assert warm == cold


def test_disk_cache_version_partitioning(tmp_path):
    cache = DiskCache(tmp_path)
    assert cache.root.name == f"v{CACHE_VERSION}-{code_digest()}"
    assert re.fullmatch(r"[0-9a-f]{16}", code_digest())


#: Modules a run loads that :func:`code_digest` does not hash, and why.
DIGEST_EXEMPT = {
    "repro": "package init: exports names lazily, runs no simulation code",
    "repro.experiments": "package init: exports names lazily",
    "repro.workloads": "package init: exports names lazily",
    "repro.workloads.registry": "trace generators: the key holds the trace digest",
    "repro.workloads.replication": "trace factories: the key holds the trace digest",
}

# Runs every registered policy, and Hawk under faults, on a tiny trace,
# then prints the module name and file of every ``repro`` module loaded.
RUN_EVERY_POLICY = """
import sys
from repro.cluster.faults import FaultPlan
from repro.experiments.config import RunSpec, execute
from repro.schedulers.registry import registered_names
from repro.workloads.spec import JobSpec, Trace
trace = Trace([JobSpec(0, 0.0, (5.0, 5.0, 5.0)), JobSpec(1, 1.0, (0.5, 0.5))])
for name in registered_names():
    execute(RunSpec(scheduler=name, n_workers=4, cutoff=1.0), trace)
faults = FaultPlan.of(crash_fraction=0.25, msg_loss=0.2, straggler_fraction=0.2)
execute(RunSpec(scheduler="hawk", n_workers=4, cutoff=1.0, faults=faults), trace)
for name, module in sorted(sys.modules.items()):
    if name == "repro" or name.startswith("repro."):
        print(name, module.__file__)
"""


def test_code_digest_hashes_every_module_a_run_loads():
    """A module a run loads is hashed into the cache directory's name,
    or exempt with a reason: an edit to any other would be hidden by a
    warm cache."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-B", "-c", RUN_EVERY_POLICY],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    package = src / "repro"
    hashed = {p for pattern in parallel.CODE_FILES for p in package.glob(pattern)}
    unhashed = {
        name for name, file in loaded.items() if Path(file).resolve() not in hashed
    }
    assert unhashed == set(DIGEST_EXEMPT)


def test_corrupt_disk_entry_is_recomputed(tmp_path):
    trace = small_trace()
    cache = DiskCache(tmp_path)
    first = SweepExecutor(max_workers=1, disk_cache=cache)
    res = first.run_one(SPEC, trace)
    path = cache.path(cache_key(SPEC, trace))
    assert path.is_file()
    path.write_bytes(b"not a pickle")

    second = SweepExecutor(max_workers=1, disk_cache=cache)
    recomputed = second.run_one(SPEC, trace)
    assert (second.executions, second.disk_hits) == (1, 0)
    assert recomputed == res


def test_unreadable_blob_is_counted_and_logged_once(tmp_path, caplog):
    trace = small_trace()
    cache = DiskCache(tmp_path)
    key = cache_key(SPEC, trace)
    result = SweepExecutor(max_workers=1, disk_cache=None).run_one(SPEC, trace)
    cache.store(key, result)
    blob = cache.path(key)
    blob.write_bytes(blob.read_bytes()[:-20])  # truncated mid-pickle
    with caplog.at_level("WARNING", logger="repro.experiments.parallel"):
        assert cache.load(key) is None
        assert cache.load(key) is None
    assert cache.unreadable == 2
    assert len(caplog.records) == 1
    message = caplog.records[0].getMessage()
    assert blob.name in message and "UnpicklingError" in message


def test_blob_holding_no_result_is_counted_and_logged(tmp_path, caplog):
    cache = DiskCache(tmp_path)
    key = cache_key(SPEC, small_trace())
    cache.root.mkdir(parents=True)
    cache.path(key).write_bytes(pickle.dumps({"jobs": []}))
    with caplog.at_level("WARNING", logger="repro.experiments.parallel"):
        assert cache.load(key) is None
    assert cache.unreadable == 1
    assert len(caplog.records) == 1
    message = caplog.records[0].getMessage()
    assert cache.path(key).name in message and "dict" in message


@pytest.mark.parametrize(
    "error", [pickle.PicklingError, RecursionError, KeyboardInterrupt, OSError]
)
def test_failed_store_leaves_no_temp_blob(tmp_path, monkeypatch, error):
    cache = DiskCache(tmp_path, max_bytes=1 << 20)
    result = SweepExecutor(max_workers=1, disk_cache=None).run_one(
        SPEC, small_trace()
    )

    def failing_dump(obj, fh, protocol=None):
        fh.write(b"partial")
        raise error("injected")

    monkeypatch.setattr(pickle, "dump", failing_dump)
    key = cache_key(SPEC, small_trace())
    if error is OSError:
        cache.store(key, result)  # a filesystem error is a silent miss
    else:
        with pytest.raises(error):
            cache.store(key, result)
    monkeypatch.undo()
    assert list(tmp_path.rglob("*.tmp")) == []
    assert cache.load(key) is None
    assert cache.total_bytes() == 0


def test_run_results_pickle_round_trip(executor):
    """Cluster records must be picklable for the pool and the disk tier."""
    res = executor.run_one(
        RunSpec(
            scheduler="hawk",
            n_workers=4,
            cutoff=TEST_CUTOFF,
            short_partition_fraction=0.25,
        ),
        small_trace(),
    )
    clone = pickle.loads(pickle.dumps(res))
    assert clone == res
    assert clone.stealing == res.stealing
    assert clone.median_utilization() == res.median_utilization()


# -- seed replication --------------------------------------------------------
def test_replica_pairs_degenerate_single_seed():
    """n_seeds=1 expands to exactly the historical (spec, trace) pair."""
    trace = small_trace()
    pairs = replica_pairs(SPEC, trace, 1)
    assert pairs == [(SPEC, trace)]
    assert pairs[0][0] is SPEC and pairs[0][1] is trace


def test_replica_pairs_offset_seeds_and_factory_traces():
    base = SPEC.with_(seed=7)
    trace = small_trace()
    drawn = []

    def factory(seed):
        drawn.append(seed)
        return Trace([short_job(seed, 0.0)], name=f"draw-{seed}")

    pairs = replica_pairs(base, trace, 3, factory)
    assert [s.seed for s, _ in pairs] == [7, 8, 9]
    assert pairs[0][1] is trace  # replica 0 keeps the given trace
    assert drawn == [8, 9]
    digests = {t.content_digest() for _, t in pairs}
    assert len(digests) == 3  # independent draws


def test_run_replicated_distinct_cache_keys_and_results(executor):
    trace = small_trace()
    results = executor.run_many(replica_pairs(SPEC, trace, 3))
    assert executor.executions == 3  # one run per replica, no dedupe
    keys = {
        cache_key(s, t) for s, t in replica_pairs(SPEC, trace, 3)
    }
    assert len(keys) == 3
    # replica 0 is the plain single-seed run, served from the memo now
    assert executor.run_one(SPEC, trace) is results[0]
    assert executor.executions == 3


def test_run_replicated_module_helper_uses_default_executor(tmp_path):
    injected = SweepExecutor(max_workers=1, disk_cache=DiskCache(tmp_path))
    previous = set_executor(injected)
    try:
        trace = small_trace()
        results = get_executor().run_many(replica_pairs(SPEC, trace, 2))
        assert len(results) == 2
        assert injected.executions == 2
        assert get_executor().run_one(SPEC, trace) is results[0]
    finally:
        set_executor(previous)


# -- determinism: serial vs pool vs cache round-trip --------------------------
def _determinism_spec():
    return RunSpec(
        scheduler="hawk",
        n_workers=5,
        cutoff=TEST_CUTOFF,
        short_partition_fraction=0.25,
        seed=3,
    )


def test_same_seed_bit_identical_serial_pool_and_cache_round_trip(tmp_path):
    """Same seed ⇒ the same RunResult bytes on every execution path."""
    spec, trace = _determinism_spec(), small_trace()
    serial = SweepExecutor(max_workers=1, disk_cache=None)
    rerun = SweepExecutor(max_workers=1, disk_cache=None)
    pool = SweepExecutor(max_workers=2, disk_cache=None)
    disk = DiskCache(tmp_path)
    writer = SweepExecutor(max_workers=1, disk_cache=disk)
    try:
        reference = serial.run_one(spec, trace)
        repeated = rerun.run_one(spec, trace)
        # two submissions so the pool path actually fans out
        pooled = pool.run_many([(spec, trace), (SPEC, trace)])[0]
        writer.run_one(spec, trace)
    finally:
        pool.close()
    reader = SweepExecutor(max_workers=1, disk_cache=disk)
    from_disk = reader.run_one(spec, trace)
    assert (reader.executions, reader.disk_hits) == (0, 1)

    blob = pickle.dumps(reference)
    assert pickle.dumps(repeated) == blob
    assert pickle.dumps(pooled) == blob
    assert pickle.dumps(from_disk) == blob


def test_replicas_are_deterministic_but_distinct(executor):
    # Hawk with stealing: seeds drive victim sampling, so replicas must
    # actually differ (Sparrow on this tiny trace happens not to).
    spec, trace = _determinism_spec(), small_trace()
    first = executor.run_many(replica_pairs(spec, trace, 3))
    again = SweepExecutor(max_workers=1, disk_cache=None).run_many(
        replica_pairs(spec, trace, 3)
    )
    for a, b in zip(first, again):
        assert pickle.dumps(a) == pickle.dumps(b)
    # different seeds are independent draws: at least one replica differs
    assert any(r != first[0] for r in first[1:])


# -- disk-cache size cap ------------------------------------------------------
def _fill(cache, executor, traces):
    keys = []
    for i, trace in enumerate(traces):
        executor.run_one(SPEC, trace)
        key = cache_key(SPEC, trace)
        keys.append(key)
        # strictly increasing mtimes so LRU order is unambiguous
        os.utime(cache.path(key), (1000.0 + i, 1000.0 + i))
    return keys


def test_cap_evicts_least_recently_used_first(tmp_path):
    traces = [small_trace() for _ in range(3)]
    traces = [
        Trace(list(t) + [short_job(50 + i, 40.0)], name=f"t{i}")
        for i, t in enumerate(traces)
    ]
    probe_cache = DiskCache(tmp_path)
    executor = SweepExecutor(max_workers=1, disk_cache=probe_cache)
    keys = _fill(probe_cache, executor, traces)
    entry_size = probe_cache.path(keys[0]).stat().st_size

    capped = DiskCache(tmp_path, max_bytes=2 * entry_size + entry_size // 2)
    removed = capped.enforce_cap()
    assert removed == 1
    assert not capped.path(keys[0]).exists()  # oldest mtime evicted
    assert capped.path(keys[1]).exists() and capped.path(keys[2]).exists()
    assert capped.total_bytes() <= capped.max_bytes
    assert capped.evictions == 1


def test_hit_refreshes_recency_so_lru_survives(tmp_path):
    traces = [
        Trace([short_job(60 + i, float(i))], name=f"lru{i}") for i in range(3)
    ]
    cache = DiskCache(tmp_path)
    executor = SweepExecutor(max_workers=1, disk_cache=cache)
    keys = _fill(cache, executor, traces)
    entry_size = cache.path(keys[0]).stat().st_size

    # touch entry 0 via a cache hit: it becomes the most recent
    assert cache.load(keys[0]) is not None
    assert cache.path(keys[0]).stat().st_mtime >= time.time() - 60

    capped = DiskCache(tmp_path, max_bytes=entry_size + entry_size // 2)
    capped.enforce_cap()
    assert capped.path(keys[0]).exists()  # hit saved it
    assert not capped.path(keys[1]).exists()
    assert not capped.path(keys[2]).exists()


def test_store_enforces_cap_but_keeps_fresh_entry(tmp_path):
    trace_a, trace_b = (
        Trace([short_job(70, 0.0)], name="cap-a"),
        Trace([short_job(71, 0.0)], name="cap-b"),
    )
    unbounded = SweepExecutor(max_workers=1, disk_cache=DiskCache(tmp_path))
    unbounded.run_one(SPEC, trace_a)
    entry_size = DiskCache(tmp_path).path(cache_key(SPEC, trace_a)).stat().st_size

    capped = DiskCache(tmp_path, max_bytes=entry_size + entry_size // 2)
    executor = SweepExecutor(max_workers=1, disk_cache=capped)
    executor.run_one(SPEC, trace_b)  # store triggers eviction of a
    assert capped.path(cache_key(SPEC, trace_b)).exists()
    assert not capped.path(cache_key(SPEC, trace_a)).exists()
    assert capped.total_bytes() <= capped.max_bytes


def test_cap_covers_stale_version_directories(tmp_path):
    """A stale version directory is gone once a cache opens, so the cap
    counts and evicts only the live directory's entries."""
    cache = DiskCache(tmp_path)
    executor = SweepExecutor(max_workers=1, disk_cache=cache)
    executor.run_one(SPEC, small_trace())
    key = cache_key(SPEC, small_trace())
    entry_size = cache.path(key).stat().st_size
    stale_dir = tmp_path / "v0"
    stale_dir.mkdir()
    stale = stale_dir / "old.pkl"
    stale.write_bytes(b"x" * entry_size)
    os.utime(stale, (1.0, 1.0))  # much older than the live entry

    capped = DiskCache(tmp_path, max_bytes=entry_size + entry_size // 2)
    assert not stale_dir.exists()
    assert capped.total_bytes() == entry_size
    assert capped.enforce_cap() == 0
    assert cache.path(key).exists()


def test_a_capped_cache_evicts_only_its_own_blobs(tmp_path):
    """Eviction deletes blobs of the live directory, never another
    ``*.pkl`` under the root, in a subdirectory or beside the cache."""
    foreign = [tmp_path / "notes" / "model.pkl", tmp_path / "weights.pkl"]
    for path in foreign:
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(b"x" * 50_000)
        os.utime(path, (1.0, 1.0))  # older than anything the cache stores
    traces = [Trace([short_job(90 + i, 0.0)], name=f"own{i}") for i in range(3)]
    result = SweepExecutor(max_workers=1, disk_cache=None).run_one(
        SPEC, traces[0]
    )
    entry_size = len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    capped = DiskCache(tmp_path, max_bytes=entry_size + entry_size // 2)
    SweepExecutor(max_workers=1, disk_cache=capped).run_many(
        [(SPEC, trace) for trace in traces]
    )
    assert capped.evictions == 2
    assert all(path.stat().st_size == 50_000 for path in foreign)
    assert capped.total_bytes() <= capped.max_bytes


def test_a_code_change_misses_and_purges_the_old_directory(
    tmp_path, monkeypatch, caplog
):
    trace = small_trace()
    key = cache_key(SPEC, trace)
    old = DiskCache(tmp_path)
    SweepExecutor(max_workers=1, disk_cache=old).run_one(SPEC, trace)
    assert old.load(key) is not None and old.purged == 0

    monkeypatch.setattr(parallel, "code_digest", lambda: "0123456789abcdef")
    with caplog.at_level("INFO", logger="repro.experiments.parallel"):
        new = DiskCache(tmp_path)
    assert new.root.name == f"v{CACHE_VERSION}-0123456789abcdef"
    assert new.load(key) is None
    assert not old.root.exists()
    assert new.purged == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"deleted 1 stale run-cache directories under {tmp_path}"
    ]


def test_opening_purges_only_stale_cache_directories(tmp_path):
    """Of the root's entries, only cache directories of another version
    or code lose their blobs, and only an emptied one is removed."""
    live = f"v{CACHE_VERSION}-{code_digest()}"
    for name in (live, "v3", f"v{CACHE_VERSION}-{'f' * 16}", "v4", "notes", "v4x"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "blob.pkl").write_bytes(b"x")
        (tmp_path / name / "blob.pkl.7.tmp").write_bytes(b"x")
    (tmp_path / "v4" / "README").write_text("not a blob")
    (tmp_path / "v2").write_text("a file, not a directory")

    cache = DiskCache(tmp_path)
    assert cache.purged == 2
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    assert left == sorted(
        [
            live, f"{live}/blob.pkl", f"{live}/blob.pkl.7.tmp",
            "notes", "notes/blob.pkl", "notes/blob.pkl.7.tmp",
            "v2", "v4", "v4/README",
            "v4x", "v4x/blob.pkl", "v4x/blob.pkl.7.tmp",
        ]
    )
    assert DiskCache(tmp_path / "missing").purged == 0


def test_default_pool_counts_only_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert SweepExecutor(disk_cache=None).max_workers == 1  # the serial path
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert SweepExecutor(disk_cache=None).max_workers == 3
    monkeypatch.setenv(WORKERS_ENV, "4")
    assert SweepExecutor(disk_cache=None).max_workers == 4


def test_max_bytes_env_parsing(monkeypatch):
    monkeypatch.delenv(DISK_CACHE_MAX_MB_ENV, raising=False)
    assert _max_bytes_from_env() is None
    monkeypatch.setenv(DISK_CACHE_MAX_MB_ENV, "1.5")
    assert _max_bytes_from_env() == int(1.5 * 1024 * 1024)
    monkeypatch.setenv(DISK_CACHE_MAX_MB_ENV, "nope")
    with pytest.raises(ConfigurationError):
        _max_bytes_from_env()
    monkeypatch.setenv(DISK_CACHE_MAX_MB_ENV, "0")
    with pytest.raises(ConfigurationError):
        _max_bytes_from_env()


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("1", True), ("on", True), ("yes", True), ("true", True),
        ("TRUE", True), (" Yes ", True), ("On", True),
        ("0", False), ("off", False), ("no", False), ("false", False),
        ("False", False), ("OFF", False), ("No", False),
        ("", None), ("  ", None), (None, None),
    ],
)
def test_env_flag_spellings(monkeypatch, capsys, tmp_path, raw, expected):
    """One spelling table: the executor's switches and the service's
    ``drain``/``compact`` request args read every row alike."""
    for name in (DISK_CACHE_ENV, PROGRESS_ENV):
        if raw is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, raw)
    monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
    cache = SweepExecutor(max_workers=1).disk_cache
    assert (cache is None) is (expected is False)
    SweepExecutor(max_workers=1, disk_cache=None).run_one(SPEC, small_trace())
    assert ("[sweep]" in capsys.readouterr().err) is bool(expected)
    assert service_flags(raw) == (expected is not False, bool(expected))


class _FlagState:
    """A service state that answers with the flags its ops were given."""

    def run_result(self, run_id, *, drain, timeout):
        return drain

    def checkpoint(self, run_id, *, compact):
        return compact


def service_flags(raw):
    """``(drain, compact)`` as the service's op table reads ``raw``."""
    from repro.service.models import ServiceConfig
    from repro.service.server import ReproService

    service = ReproService(_FlagState(), ServiceConfig())
    given = {} if raw is None else {"drain": raw, "compact": raw}

    async def ask():
        drain = await service._op("result", {"run_id": "r", **given})
        compact = await service._op("checkpoint", {"run_id": "r", **given})
        return drain, compact

    return asyncio.run(ask())


@pytest.mark.parametrize("raw", ["2", "maybe", "enabled", "y", "-1"])
def test_env_flag_rejects_other_values(monkeypatch, raw):
    monkeypatch.setenv(DISK_CACHE_ENV, raw)
    with pytest.raises(ConfigurationError, match=DISK_CACHE_ENV):
        SweepExecutor(max_workers=1)


def test_negative_max_bytes_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        DiskCache(tmp_path, max_bytes=-1)


# -- default-executor plumbing ----------------------------------------------
def test_run_cached_uses_default_executor(tmp_path):
    injected = SweepExecutor(max_workers=1, disk_cache=DiskCache(tmp_path))
    previous = set_executor(injected)
    try:
        trace = small_trace()
        a = get_executor().run_one(SPEC, trace)
        b = get_executor().run_one(SPEC, trace)
        assert a is b
        assert injected.executions == 1
    finally:
        set_executor(previous)


# -- shared-memory trace transport -------------------------------------------
def _distinct_specs(n):
    return [SPEC.with_(seed=i + 1) for i in range(n)]


def test_shm_transport_publishes_each_trace_once(tmp_path):
    """A pool batch over one trace serializes it into one shm segment."""
    executor = SweepExecutor(
        max_workers=2, disk_cache=DiskCache(tmp_path), trace_shm=True
    )
    trace = small_trace()
    try:
        results = executor.run_many([(s, trace) for s in _distinct_specs(4)])
        assert executor.executions == 4
        assert executor._transport is not None
        assert len(executor._transport) == 1  # one distinct trace
        assert len({r.events_fired for r in results}) >= 1
    finally:
        executor.close()
    assert executor._transport is None  # segments unlinked on close


def test_shm_and_inline_transport_results_identical(tmp_path):
    trace = small_trace()
    pairs = [(s, trace) for s in _distinct_specs(3)]
    via_shm = SweepExecutor(
        max_workers=2, disk_cache=None, trace_shm=True
    )
    via_pickle = SweepExecutor(
        max_workers=2, disk_cache=None, trace_shm=False
    )
    try:
        a = via_shm.run_many(pairs)
        b = via_pickle.run_many(pairs)
        assert pickle.dumps(a) == pickle.dumps(b)
        assert via_shm._transport is not None
        assert via_pickle._transport is None
    finally:
        via_shm.close()
        via_pickle.close()


def test_shm_failure_falls_back_counted_and_logged_once(monkeypatch, caplog):
    """Without shared memory a pool batch still returns the serial results,
    and the transport's one failure is counted and logged, not silent."""
    from repro.experiments import parallel

    def unavailable(*args, **kwargs):
        raise OSError("no shared memory")

    trace = small_trace()
    pairs = [(s, trace) for s in _distinct_specs(4)]
    serial = SweepExecutor(max_workers=1, disk_cache=None).run_many(pairs)
    monkeypatch.setattr(parallel.shared_memory, "SharedMemory", unavailable)
    executor = SweepExecutor(max_workers=2, disk_cache=None, trace_shm=True)
    try:
        with caplog.at_level("WARNING", logger="repro.experiments.parallel"):
            results = executor.run_many(pairs)
        assert results == serial
        assert executor.executions == 4
        assert executor._transport.failures == 1
        assert len(executor._transport) == 0
    finally:
        executor.close()
    assert len(caplog.records) == 1
    assert "OSError" in caplog.records[0].getMessage()


def test_trace_transport_round_trip_and_worker_cache():
    from repro.experiments.parallel import (
        TraceTransport,
        _trace_from_shm,
        _worker_trace_cache,
    )

    transport = TraceTransport()
    trace = small_trace()
    try:
        digest, name, length = transport.publish(trace)
        assert digest == trace.content_digest()
        # Publishing again reuses the segment.
        assert transport.publish(trace) == (digest, name, length)
        assert len(transport) == 1
        _worker_trace_cache.clear()
        loaded = _trace_from_shm(digest, name, length)
        assert [j.task_durations for j in loaded] == [
            j.task_durations for j in trace
        ]
        # Second load is served from the worker-side cache (same object).
        assert _trace_from_shm(digest, name, length) is loaded
    finally:
        transport.close()
        _worker_trace_cache.clear()
    assert len(transport) == 0


def test_content_digest_memoized_per_instance(monkeypatch):
    """Repeated cache-key computations must not rehash task durations."""
    import repro.workloads.spec as spec_module

    calls = 0
    real = spec_module.blake2b

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(spec_module, "blake2b", counting)
    trace = small_trace()
    first = trace.content_digest()
    for _ in range(5):
        assert trace.content_digest() == first
        cache_key(SPEC, trace)
    assert calls == 1
