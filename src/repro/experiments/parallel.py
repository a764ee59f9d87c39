"""Streaming sweep execution with a two-tier persistent run cache.

Every figure reduces to independent ``(RunSpec, trace)`` runs.
:class:`SweepExecutor` consumes them as a *stream*: :meth:`run_stream`
pulls pairs lazily from a generator, keeps a bounded in-flight window
over a ``multiprocessing`` worker pool (backpressure — arbitrarily large
grids never materialize), drains completions out of order as they land,
and retires each result into the cache immediately.  ``run_many`` /
``run_one`` collect the stream back into submission order, so batch
callers see exactly the pre-streaming behaviour.
:func:`replica_pairs` is the one seed-replica expansion: every sweep,
and any caller of ``run_many(replica_pairs(...))``, builds its
replicas with it.

Two cache tiers sit in front of execution:

* an in-process memo (``dict``) giving object identity within a session —
  the contract ``get_executor().run_one(spec, t) is
  get_executor().run_one(spec, t)`` that the figure drivers and tests
  rely on;
* an on-disk cache of pickled :class:`RunResult` values
  (:class:`DiskCache`), shared across processes and pytest sessions.

The cache key is a content hash of the spec (every compared field,
including ``estimate_tag``) and the *full* trace — job ids, submit times
and exact per-task durations via :meth:`Trace.content_digest` — so two
traces that merely share a name, length and rounded totals can never
collide.  ``CACHE_VERSION`` is baked into both the key and the directory
name: bump it whenever engine semantics change (event ordering, RNG
streams, record fields) and every stale entry is invalidated at once.
The directory name also carries :func:`code_digest`, so any edit to the
simulator's source opens a new, empty directory.

Trace transport: a sweep submits many specs over few distinct traces, so
pickling the full trace into every pool submission is the dominant IPC
cost for large traces.  Each distinct trace (keyed on its content
digest) is instead serialized once into a ``multiprocessing.shared_memory``
segment owned by the executor; submissions carry only ``(digest, segment
name, length)`` and pool workers attach, deserialize once, and keep a
small digest-keyed cache.  Segments are unlinked when the executor
closes (and at interpreter exit as a fallback).  If shared memory is
unavailable the executor transparently falls back to inline pickling.

Knobs (also see ``src/repro/experiments/README.md``):

* ``REPRO_EXECUTOR_WORKERS`` — worker-pool size; unset defaults to the
  CPUs this process may use (``os.sched_getaffinity``, else
  ``os.cpu_count()``); ``0``/``1`` force the deterministic serial path.
* ``REPRO_RUNCACHE`` — set to ``0`` to disable the on-disk tier.  This
  and ``REPRO_SWEEP_PROGRESS`` are flags: ``1``/``0``, ``on``/``off``,
  ``yes``/``no`` or ``true``/``false`` in any case; unset or empty
  keeps the default, and anything else raises ``ConfigurationError``.
* ``REPRO_RUNCACHE_DIR`` — override the on-disk cache location.
* ``REPRO_RUNCACHE_MAX_MB`` — cap the on-disk tier's total size;
  least-recently-used entries (by mtime, refreshed on every cache hit)
  are evicted after each store until the cache fits.  Unset means
  unbounded.
* ``REPRO_SWEEP_PROGRESS`` — set to ``1`` for per-completion progress
  lines on stderr (``point k/N done, in-flight j, memo/disk/exec``).

Runs are deterministic given (spec, trace): per-run RNG streams are
seeded from the spec, so the parallel path returns bit-identical results
to the serial one; serial execution additionally preserves today's
submission ordering exactly.  Specs whose ``estimate`` callable cannot be
pickled (e.g. closures) transparently fall back to in-process execution.
"""

from __future__ import annotations

import atexit
import functools
import logging
import math
import os
import pickle
import re
import sys
import time
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from hashlib import blake2b
from multiprocessing import shared_memory
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.cluster.records import RunResult
from repro.core.errors import ConfigurationError
from repro.core.params import parse_flag
from repro.experiments.config import RunSpec, execute
from repro.experiments.result_index import ResultIndex
from repro.workloads.registry import WorkloadSpec
from repro.workloads.replication import TraceFactory
from repro.workloads.spec import Trace

#: The results version: bump it when a change moves any result (the run
#: ledger refuses a moved result until it is).  A code change alone
#: already moves the disk tier to a new directory (:func:`code_digest`).
#: v2: RunSpec v2 — policy params moved into the registry-validated
#: ``params`` mapping (canonically ordered in the key) and estimators
#: gained the seed-derived noise hook.
#: v3: work-stealing backoff resets on park, changing retry timing (and
#: so RNG consumption order) in every stealing run.
#: v4: ``JobRecord`` and ``UtilizationSample`` became named tuples; v3
#: pickles carry the old dataclass state, which the tuples cannot load.
#: Every result, and its repr digest, is unchanged.
CACHE_VERSION = 4

WORKERS_ENV = "REPRO_EXECUTOR_WORKERS"
DISK_CACHE_ENV = "REPRO_RUNCACHE"
DISK_CACHE_DIR_ENV = "REPRO_RUNCACHE_DIR"
DISK_CACHE_MAX_MB_ENV = "REPRO_RUNCACHE_MAX_MB"
PROGRESS_ENV = "REPRO_SWEEP_PROGRESS"

logger = logging.getLogger(__name__)


def _default_cache_dir() -> Path:
    """``benchmarks/.runcache`` at the repo root for a src/ checkout.

    When the package is installed elsewhere (site-packages), the
    repo-root heuristic would point outside any repo, so fall back to a
    per-user cache directory instead of creating stray directories.
    """
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / ".runcache"
    return Path.home() / ".cache" / "repro-runcache"


#: Default on-disk location (see :func:`_default_cache_dir`).
DEFAULT_CACHE_DIR = _default_cache_dir()


#: The modules, under the ``repro`` package, whose bytes key the disk
#: tier's directory: every module a run loads but the trace generators,
#: whose output the cache key holds (``Trace.content_digest``).
CODE_FILES = (
    "core/*.py", "cluster/*.py", "schedulers/*.py",
    "workloads/spec.py", "experiments/config.py",
)
#: A directory name this or another version of the code keyed the tier by.
_CACHE_DIR_NAME = re.compile(r"v[0-9]+(?:-[0-9a-f]{16})?")


@functools.cache
def code_digest() -> str:
    """16 hex digits of a blake2b over the path and bytes of each
    :data:`CODE_FILES` module, in sorted order.  Computed on a process's
    first :class:`DiskCache`, never at import (pool workers open none)."""
    package = Path(__file__).resolve().parents[1]
    h = blake2b(digest_size=8)
    for path in sorted(p for pattern in CODE_FILES for p in package.glob(pattern)):
        data = path.read_bytes()
        rel = path.relative_to(package.parent).as_posix()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def cache_key(spec: RunSpec, trace: Trace) -> str:
    """Content hash identifying one run for both cache tiers."""
    h = blake2b(digest_size=20)
    h.update(f"v{CACHE_VERSION}|".encode())
    h.update(spec.digest.encode())
    h.update(b"|")
    h.update(trace.content_digest().encode())
    return h.hexdigest()


class DiskCache:
    """Pickled RunResults under ``<root>/v<CACHE_VERSION>-<code>/<key>.pkl``.

    ``<code>`` is :func:`code_digest`: only today's simulator and blob
    decoder read a blob.  Opening a cache purges every stale sibling
    (:func:`_purge_stale`), so two checkouts of different code that share
    a root purge each other: each run is a miss, never a wrong result.

    With ``max_bytes`` set, the cache is bounded: after every store, the
    least-recently-used entries of the live directory are deleted until
    the total size fits.  Every store and every hit stamps the blob's
    mtime with the current time, so recency survives on disk, making the
    policy LRU rather than FIFO.  The entry just written is never
    evicted, so a single result larger than the cap still caches (the
    cap then holds only approximately).

    Sizes and LRU order come from an in-memory
    :class:`~repro.experiments.result_index.ResultIndex`, filled by one
    listing of the live directory the first time the cap needs it; an
    uncapped cache never lists.
    """

    def __init__(
        self,
        root: Path | str = DEFAULT_CACHE_DIR,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigurationError(
                f"cache max_bytes must be positive, got {max_bytes}"
            )
        name = f"v{CACHE_VERSION}-{code_digest()}"
        self.root = Path(root) / name
        self._dir = os.path.join(self.root, "")
        self.max_bytes = max_bytes
        self.index = ResultIndex(self.root)
        #: Stale sibling directories deleted when this cache opened.
        self.purged = _purge_stale(root, name)
        if self.purged:
            logger.info(
                "deleted %d stale run-cache directories under %s",
                self.purged, root,
            )
        #: Entries deleted by cap enforcement (observability counter).
        self.evictions = 0
        #: Loads that found a blob but could not unpickle it.
        self.unreadable = 0

    def path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def load(self, key: str) -> RunResult | None:
        # String joins: pathlib's were a measurable share of a small hit.
        name = f"{key}.pkl"
        path = self._dir + name
        # No collector pause: a column blob unpickles into a few dozen
        # objects, and the pause cost more than any collection it avoided.
        try:
            with open(path, "rb") as fh:
                result = pickle.loads(fh.read())
        except FileNotFoundError:
            self.index.remove([name])  # deleted behind this instance
            return None
        except Exception as exc:
            # A truncated or otherwise unreadable entry is a miss: the run
            # is recomputed and the entry rewritten.
            self._unreadable(path, type(exc).__name__)
            return None
        if not isinstance(result, RunResult):
            self._unreadable(path, f"holds a {type(result).__name__}")
            return None
        try:
            _stamp(path)  # refresh LRU recency
        except OSError:
            pass
        self.index.touch(name)
        return result

    def _unreadable(self, path: str, why: str) -> None:
        """Count a blob that does not load as a result; log the first."""
        self.unreadable += 1
        if self.unreadable == 1:
            logger.warning(
                "unreadable run-cache blob %s (%s); treated as a miss", path, why
            )

    def store(self, key: str, result: RunResult) -> None:
        os.makedirs(self._dir, exist_ok=True)
        name = f"{key}.pkl"
        final = self._dir + name
        # Write-then-rename keeps concurrent readers/writers safe: a
        # reader never observes a partially written pickle.
        tmp = f"{final}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
                size = fh.tell()
            _stamp(tmp)
            os.replace(tmp, final)
        except OSError:
            Path(tmp).unlink(missing_ok=True)
            return
        except BaseException:
            # An unpicklable result or a Ctrl-C mid-dump must not orphan
            # the temp file either: the index sees only ``*.pkl``, so the
            # size cap would never count or evict it.
            Path(tmp).unlink(missing_ok=True)
            raise
        self.index.record(name, size)
        if self.max_bytes is not None and self.index.total_bytes() > self.max_bytes:
            self.enforce_cap(keep=name)

    def total_bytes(self) -> int:
        """Current size of every entry in the live directory."""
        return self.index.total_bytes()

    def enforce_cap(self, keep: str | None = None) -> int:
        """Evict LRU entries until the cache fits ``max_bytes``.

        Returns the number of entries deleted.  ``keep`` (the file name
        of the entry just written) is exempt.  Concurrent enforcement is
        safe: deleting an already-deleted entry is a no-op, and
        over-deletion only costs a future recompute, never correctness.
        """
        if self.max_bytes is None:
            return 0
        total = self.index.total_bytes()
        removed = 0
        dropped: list[str] = []
        for name, size in self.index.lru_entries():
            if total <= self.max_bytes:
                break
            if name == keep:
                continue
            try:
                os.unlink(self._dir + name)
            except FileNotFoundError:
                pass  # already gone: only the index still counted it
            except OSError:
                continue
            else:
                removed += 1
            dropped.append(name)
            total -= size
        self.index.remove(dropped)
        self.evictions += removed
        return removed


def _purge_stale(root: Path | str, live: str) -> int:
    """Purge each cache directory under ``root`` but ``live``: delete its
    ``*.pkl`` and ``*.tmp`` files, then the directory if that emptied it.
    Nothing else is touched.  Returns the number of directories removed."""
    try:
        with os.scandir(root) as entries:
            stale = [
                entry.path for entry in entries
                if entry.name != live and _CACHE_DIR_NAME.fullmatch(entry.name)
                and not entry.is_symlink()
            ]
    except OSError:  # no cache yet
        return 0
    purged = 0
    for directory in stale:
        try:
            for name in os.listdir(directory):  # NotADirectoryError for a file
                if name.endswith((".pkl", ".tmp")):
                    os.unlink(os.path.join(directory, name))
            os.rmdir(directory)  # fails while anything else is left
        except OSError:
            continue
        purged += 1
    return purged


def _stamp(path: str) -> None:
    """Set a blob's mtime to now, at full clock resolution.

    ``os.utime`` without times takes the kernel's coarse clock, so blobs
    touched within one tick would tie and a later walk could not order
    them as they were used.
    """
    now = time.time_ns()
    os.utime(path, ns=(now, now))


def _pool_size_from_env() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or raw.strip() == "":
        # The CPUs this process may run on: a pool wider than its
        # affinity mask only adds hand-offs between the same CPUs.
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{WORKERS_ENV} must be an integer, got {raw!r}"
        ) from None
    return max(1, value)


def _max_bytes_from_env() -> int | None:
    raw = os.environ.get(DISK_CACHE_MAX_MB_ENV)
    if raw is None or raw.strip() == "":
        return None
    try:
        megabytes = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{DISK_CACHE_MAX_MB_ENV} must be a number (MB), got {raw!r}"
        ) from None
    if not math.isfinite(megabytes) or megabytes <= 0:
        raise ConfigurationError(
            f"{DISK_CACHE_MAX_MB_ENV} must be a positive finite number, "
            f"got {raw!r}"
        )
    return int(megabytes * 1024 * 1024)


def _disk_cache_from_env() -> DiskCache | None:
    if not parse_flag(DISK_CACHE_ENV, os.environ.get(DISK_CACHE_ENV), True):
        return None
    return DiskCache(
        os.environ.get(DISK_CACHE_DIR_ENV, DEFAULT_CACHE_DIR),
        max_bytes=_max_bytes_from_env(),
    )


def replica_pairs(
    spec: RunSpec,
    trace: Trace | WorkloadSpec,
    n_seeds: int,
    trace_factory: TraceFactory | None = None,
) -> list[tuple[RunSpec, Trace]]:
    """Expand one (spec, trace) point into ``n_seeds`` replica pairs.

    Replica ``r`` runs ``spec`` with seed ``spec.seed + r`` (the
    :meth:`RunSpec.replicas` family).  With a ``trace_factory``, each
    replica additionally gets an independent trace draw from the replica
    seed; replica 0 always uses the given ``trace`` verbatim, so the
    ``n_seeds=1`` expansion is exactly the historical single run — same
    spec, same trace object, same cache key.

    A :class:`~repro.workloads.registry.WorkloadSpec` is accepted in
    place of the trace: it materializes at the spec's base seed and
    serves as its own per-replica factory (a ``WorkloadSpec`` *is* a
    ``TraceFactory``).
    """
    if isinstance(trace, WorkloadSpec):
        trace_factory = trace_factory or trace
        trace = trace.trace(spec.seed)
    specs = spec.replicas(n_seeds)
    pairs: list[tuple[RunSpec, Trace]] = [(specs[0], trace)]
    for replica in specs[1:]:
        replica_trace = (
            trace if trace_factory is None else trace_factory(replica.seed)
        )
        pairs.append((replica, replica_trace))
    return pairs


# -- shared-memory trace transport --------------------------------------
class TraceTransport:
    """Publishes each distinct trace once for all pool submissions.

    The parent owns the segments: one per distinct
    :meth:`Trace.content_digest`, holding the pickled trace.  Pool
    submissions then reference ``(digest, segment name, payload length)``
    instead of carrying the trace, so a sweep of hundreds of specs over
    one trace serializes it exactly once.  Segments are unlinked by
    :meth:`close` (idempotent; also registered via ``atexit`` so an
    executor that is never closed cannot leak past interpreter exit).
    """

    def __init__(self) -> None:
        self._segments: dict[str, tuple[shared_memory.SharedMemory, int]] = {}
        #: Segment creations that failed (at most one; see publish()).
        self.failures = 0
        atexit.register(self.close)

    def __len__(self) -> int:
        return len(self._segments)

    def publish(self, trace: Trace) -> tuple[str, str, int] | None:
        """(digest, segment name, length) for a trace, creating on first use.

        Returns ``None`` when shared memory is unavailable — callers fall
        back to pickling the trace into the submission.  The first
        failure is counted in :attr:`failures`, logged once, and disables
        the transport for this instance, so later submissions skip
        straight to the fallback instead of paying a doomed
        serialization + syscall each.
        """
        if self.failures:
            return None
        digest = trace.content_digest()
        segment = self._segments.get(digest)
        if segment is None:
            payload = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
            try:
                shm = shared_memory.SharedMemory(create=True, size=len(payload))
            except (OSError, ValueError) as exc:
                self.failures += 1
                logger.warning(
                    "shared memory unavailable (%s); traces are pickled "
                    "into each pool submission", type(exc).__name__,
                )
                return None
            shm.buf[: len(payload)] = payload
            segment = (shm, len(payload))
            self._segments[digest] = segment
        return digest, segment[0].name, segment[1]

    def close(self) -> None:
        """Unlink every published segment (safe to call repeatedly)."""
        for shm, _ in self._segments.values():
            try:
                shm.close()
                shm.unlink()
            except OSError:
                pass
        self._segments.clear()
        atexit.unregister(self.close)


#: Pool-worker-side cache of deserialized traces, keyed by content digest.
#: Small and FIFO-bounded: a sweep touches few distinct traces, and a
#: stale entry merely costs one re-read from shared memory.
_WORKER_TRACE_CACHE_MAX = 8
_worker_trace_cache: "OrderedDict[str, Trace]" = OrderedDict()


def _trace_from_shm(digest: str, shm_name: str, length: int) -> Trace:
    trace = _worker_trace_cache.get(digest)
    if trace is None:
        shm = shared_memory.SharedMemory(name=shm_name)
        try:
            trace = pickle.loads(bytes(shm.buf[:length]))
        finally:
            shm.close()
        _worker_trace_cache[digest] = trace
        while len(_worker_trace_cache) > _WORKER_TRACE_CACHE_MAX:
            _worker_trace_cache.popitem(last=False)
    return trace


def _execute_shm(
    run_fn, spec: RunSpec, digest: str, shm_name: str, length: int
):
    """Pool-side worker: run one experiment on a trace read from shm."""
    return run_fn(spec, _trace_from_shm(digest, shm_name, length))


def _transportable(spec: RunSpec) -> bool:
    """Can this spec cross a process boundary?

    Only the ``estimate`` callable can be unpicklable (lambdas/closures,
    e.g. the Figure 16-17 classification carrier); everything else in a
    (spec, trace) pair is plain data.
    """
    if spec.estimate is None:
        return True
    try:
        pickle.dumps(spec.estimate)
    except Exception:
        return False
    return True


class SweepExecutor:
    """Streaming runner for independent (RunSpec, trace) experiments.

    Parameters
    ----------
    max_workers:
        Worker-pool size.  ``None`` reads ``REPRO_EXECUTOR_WORKERS`` and
        falls back to the CPUs in this process's affinity mask
        (``os.cpu_count()`` where the platform has no mask).  ``<= 1``
        selects the serial path, which executes cache misses in
        submission order in this process — bit-identical to the
        historical one-by-one loop.
    disk_cache:
        A :class:`DiskCache`, ``None`` to disable the persistent tier, or
        the string ``"env"`` (default) to honor the ``REPRO_RUNCACHE*``
        environment variables.
    trace_shm:
        Ship traces to pool workers through the shared-memory transport
        (one segment per distinct trace) instead of pickling the trace
        into every submission.
    inflight:
        In-flight window of :meth:`run_stream` — the maximum number of
        cache misses submitted-but-unfinished at once.  ``None``
        (default) is 2× the pool size.  Smaller values bound memory on
        huge generators, larger ones smooth over uneven run times.
    run_fn:
        The function executed per (spec, trace) pair; defaults to
        :func:`repro.experiments.config.execute`.  Must be a picklable
        module-level callable to cross the pool boundary (the benchmark
        and crash tests inject synthetic runs here).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        disk_cache: DiskCache | None | str = "env",
        trace_shm: bool = True,
        inflight: int | None = None,
        run_fn: Callable[[RunSpec, Trace], RunResult] = execute,
    ) -> None:
        self.max_workers = (
            _pool_size_from_env() if max_workers is None else max(1, max_workers)
        )
        self.disk_cache = (
            _disk_cache_from_env() if disk_cache == "env" else disk_cache
        )
        self.trace_shm = trace_shm
        self.inflight = (
            max(2, 2 * self.max_workers) if inflight is None else max(1, inflight)
        )
        self.run_fn = run_fn
        self._memo: dict[str, RunResult] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._transport: TraceTransport | None = None
        # Observability counters (read by tests and the benchmark).
        self.memo_hits = 0
        self.disk_hits = 0
        self.executions = 0
        self.pool_rebuilds = 0
        self.max_inflight = 0

    # -- cache management ----------------------------------------------
    def close(self) -> None:
        """Shut down the pool and release shm segments (caches stay intact).

        Queued-but-unstarted futures are cancelled and running ones are
        drained (``wait=True``) *before* the shm segments are unlinked,
        so a live pool worker can never observe its trace segment
        disappearing mid-read.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def summary(self) -> dict:
        """Cache-hit / execution counters for logs, tests and the bench."""
        return {
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "executions": self.executions,
            "pool_rebuilds": self.pool_rebuilds,
            "max_inflight": self.max_inflight,
        }

    def _record(self, key: str, result: RunResult) -> None:
        self._memo[key] = result
        if self.disk_cache is not None:
            self.disk_cache.store(key, result)

    # -- execution ------------------------------------------------------
    def run_one(self, spec: RunSpec, trace: Trace) -> RunResult:
        return self.run_many([(spec, trace)])[0]

    def run_many(
        self, pairs: Sequence[tuple[RunSpec, Trace]]
    ) -> list[RunResult]:
        """Run a batch, returning results in submission order.

        A thin ordered-collection wrapper over :meth:`run_stream`:
        completions may land in any order, but results are slotted back
        by submission index, so callers are byte-identical to the
        pre-streaming batch path.  Duplicate submissions (same cache
        key) execute once; results for a given key are identical objects
        within a session.
        """
        pairs = list(pairs)
        results: list[RunResult | None] = [None] * len(pairs)
        for index, _key, result in self.run_stream(pairs, total=len(pairs)):
            results[index] = result
        return results  # type: ignore[return-value]

    def run_stream(
        self,
        pairs: Iterable[tuple[RunSpec, Trace]],
        total: int | None = None,
    ) -> Iterator[tuple[int, str, RunResult]]:
        """Producer/consumer core: stream results as they complete.

        Pulls ``(spec, trace)`` pairs lazily from ``pairs`` (any
        iterable, including an unbounded generator), keeps at most
        :attr:`inflight` cache misses submitted-but-unfinished — the
        backpressure that stops huge generators from materializing — and
        yields ``(submission_index, cache_key, result)`` in *completion*
        order.  Every result is retired into the two-tier cache before
        it is emitted.

        Cache semantics match the batch path exactly: duplicate keys
        execute once (later duplicates wait on the first occurrence and
        emit with it, or hit the memo if it already finished), specs
        that cannot cross the pool run in-process, a lone miss is
        executed in-process rather than paying pool startup, and the
        serial path (``max_workers <= 1``) executes misses in submission
        order in this process.

        A :class:`~concurrent.futures.BrokenExecutor` from a crashed
        pool worker does not lose the stream: the pool is torn down
        (rebuilt lazily on the next miss), and every affected key is
        re-run serially in-process in submission order.
        """
        if total is None and hasattr(pairs, "__len__"):
            total = len(pairs)  # type: ignore[arg-type]
        it = iter(pairs)
        progress = parse_flag(PROGRESS_ENV, os.environ.get(PROGRESS_ENV), False)
        window = self.inflight
        # Streaming state: `waiters` maps every in-flight or deferred
        # key to the submission indices awaiting it; `pending` keeps the
        # (spec, trace) pair for each such key so crashed keys can be
        # re-run; `running` maps live pool futures back to their key;
        # `deferred` holds back the first transportable miss so a stream
        # with a single miss never pays pool startup.
        waiters: dict[str, list[int]] = {}
        pending: dict[str, tuple[RunSpec, Trace]] = {}
        running: dict = {}
        deferred: str | None = None
        next_index = 0
        done_points = 0
        exhausted = False

        def finish(key: str, result: RunResult):
            """Emissions for every index waiting on a completed key."""
            nonlocal done_points
            emissions = []
            for index in waiters.pop(key, []):
                done_points += 1
                emissions.append((index, key, result))
            if progress:
                live = len(running) + (1 if deferred is not None else 0)
                self._progress(done_points, total, live)
            return emissions

        def emit_now(index: int, key: str, result: RunResult):
            """Emission for a pair satisfied at pull time (cache hit)."""
            waiters[key] = [index]
            return finish(key, result)

        def run_local(key: str):
            """Execute one pending key in-process and emit its waiters."""
            spec, trace = pending.pop(key)
            self.executions += 1
            result = self.run_fn(spec, trace)
            self._record(key, result)
            return finish(key, result)

        while True:
            # Fill: pull from the input while the window has room.
            while not exhausted:
                live = len(running) + (1 if deferred is not None else 0)
                self.max_inflight = max(self.max_inflight, live)
                if live >= window:
                    break
                try:
                    spec, trace = next(it)
                except StopIteration:
                    exhausted = True
                    break
                index = next_index
                next_index += 1
                key = cache_key(spec, trace)
                if key in waiters:  # duplicate of an in-flight key
                    waiters[key].append(index)
                    continue
                result = self._memo.get(key)
                if result is not None:
                    self.memo_hits += 1
                    yield from emit_now(index, key, result)
                    continue
                if self.disk_cache is not None:
                    result = self.disk_cache.load(key)
                    if result is not None:
                        self.disk_hits += 1
                        self._memo[key] = result
                        yield from emit_now(index, key, result)
                        continue
                waiters[key] = [index]
                pending[key] = (spec, trace)
                if self.max_workers <= 1 or not _transportable(spec):
                    yield from run_local(key)
                    continue
                if deferred is None and not running and self._pool is None:
                    deferred = key  # a stream of one miss stays in-process
                    continue
                if deferred is not None:
                    head, deferred = deferred, None
                    hspec, htrace = pending[head]
                    running[self._submit(hspec, htrace)] = head
                running[self._submit(spec, trace)] = key
                live = len(running)
                self.max_inflight = max(self.max_inflight, live)

            # Drain: consume at least one completion, or flush leftovers.
            if running:
                done, _ = wait(set(running), return_when=FIRST_COMPLETED)
                crashed: list[str] = []
                for future in done:
                    key = running.pop(future)
                    try:
                        result = future.result()
                    except BrokenExecutor:
                        crashed.append(key)
                        continue
                    del pending[key]
                    self.executions += 1
                    self._record(key, result)
                    yield from finish(key, result)
                if crashed:
                    # The pool is gone and took every queued future with
                    # it.  Tear it down (the next miss rebuilds it) and
                    # re-run the affected keys serially, in submission
                    # order, in this process.
                    crashed_keys = set(crashed) | set(running.values())
                    running.clear()
                    if self._pool is not None:
                        self._pool.shutdown(wait=False, cancel_futures=True)
                        self._pool = None
                    self.pool_rebuilds += 1
                    for key in [k for k in pending if k in crashed_keys]:
                        yield from run_local(key)
            elif deferred is not None:
                # Input exhausted (or window=1) with one lone miss held
                # back: a batch of one always ran in-process.
                head, deferred = deferred, None
                yield from run_local(head)
            elif exhausted:
                return

    def _progress(self, done: int, total: int | None, live: int) -> None:
        from repro.experiments.report import progress_line

        print(
            progress_line(
                done,
                total,
                live,
                memo_hits=self.memo_hits,
                disk_hits=self.disk_hits,
                executions=self.executions,
            ),
            file=sys.stderr,
        )

    def _submit(self, spec: RunSpec, trace: Trace):
        """Submit one run, shipping the trace by reference when possible."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        if self.trace_shm:
            if self._transport is None:
                self._transport = TraceTransport()
            published = self._transport.publish(trace)
            if published is not None:
                digest, name, length = published
                return self._pool.submit(
                    _execute_shm, self.run_fn, spec, digest, name, length
                )
        return self._pool.submit(self.run_fn, spec, trace)


# -- module-level default executor -------------------------------------
_default_executor: SweepExecutor | None = None


def get_executor() -> SweepExecutor:
    """The process-wide executor every figure driver and sweep runs on."""
    global _default_executor
    if _default_executor is None:
        _default_executor = SweepExecutor()
    return _default_executor


def set_executor(executor: SweepExecutor | None) -> SweepExecutor | None:
    """Swap the default executor; returns the previous one.

    Pass ``None`` to force re-creation from the environment on next use
    (tests use this to inject isolated cache directories).
    """
    global _default_executor
    previous = _default_executor
    _default_executor = executor
    return previous
