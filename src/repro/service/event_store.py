"""Append-only SQLite event store (WAL) for scheduler runs.

The store is the service's source of truth: every lifecycle transition
is appended as one row in the ``events`` table with a store-assigned
monotonic ``seq`` (an ``INTEGER PRIMARY KEY AUTOINCREMENT``), and replay
(:mod:`repro.service.replay`) folds those rows back into
:class:`~repro.cluster.records.RunResult` values.

Durability model
----------------
The store's one connection runs ``journal_mode=WAL`` with
``synchronous=NORMAL``: appends go to the write-ahead log and survive
process crashes (not power loss) up to the last committed transaction.
Appends are buffered — the store commits every
``flush_every`` rows and on every explicit :meth:`flush` — so a hard
crash loses at most one uncommitted tail, never a committed prefix, and
never tears an individual event.  ``seq`` gaps cannot appear in what
a reader observes: readers see exactly the committed prefix, in order.

Snapshots
---------
``save_snapshot`` stores a folded-state checkpoint (JSON produced by
:meth:`repro.service.replay.RunFold.to_state`) keyed by the seq it
covers; :meth:`compact` then deletes the covered events.  A run keeps
its newest checkpoint: an older one that saves late never replaces a
newer one whose compaction may already have deleted the events the
older one's replay would need.  Replay of a
compacted run starts from the snapshot and folds only the tail:
:meth:`replay_rows` reads both under one hold of the store lock, so a
checkpoint that saves and compacts concurrently lands wholly before or
wholly after the read, never between the snapshot and its tail.

The store is thread-safe: one connection guarded by an ``RLock``
(appends come from the scheduler-bridge thread, reads from asyncio
executor threads).

Commit retry
------------
Every commit runs through :meth:`EventStore._commit`, a bounded
busy-retry: another process holding the database can surface as
``database is locked``/``busy`` even under WAL, so a commit is tried up
to ``commit_retries`` times, backing off from ``commit_backoff`` seconds
and doubling.  A database held locked past that budget raises the typed
:class:`~repro.core.errors.StoreUnavailable` (the HTTP edge maps it to
503) instead of a raw sqlite exception mid-append; other errors re-raise
at once.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from typing import Any, Iterator, Mapping

from repro.core.errors import ConfigurationError, StoreUnavailable
from repro.schedulers.registry import RunSpec
from repro.service.models import (
    LifecycleEvent,
    canonical_json,
    run_id,
    run_spec_from_json,
    run_spec_to_json,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS events (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id     TEXT    NOT NULL,
    kind       TEXT    NOT NULL,
    vtime      REAL    NOT NULL,
    wtime      REAL    NOT NULL,
    job_id     INTEGER,
    task_index INTEGER,
    worker_id  INTEGER,
    payload    TEXT    NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_events_run ON events (run_id, seq);
CREATE TABLE IF NOT EXISTS runs (
    run_id    TEXT PRIMARY KEY,
    created_w REAL NOT NULL,
    config    TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshots (
    run_id    TEXT PRIMARY KEY,
    upto_seq  INTEGER NOT NULL,
    created_w REAL    NOT NULL,
    state     TEXT    NOT NULL
);
"""


class EventStore:
    """Append-only event log over one SQLite database file."""

    #: Commit retry budget: attempts and base backoff (seconds, doubled
    #: per retry).  Five attempts at 0.01s base waits ~0.15s worst case.
    commit_retries: int = 5
    commit_backoff: float = 0.01

    def __init__(self, path: str, flush_every: int = 256) -> None:
        if flush_every < 1:
            raise ConfigurationError("flush_every must be >= 1")
        self.path = path
        self.flush_every = flush_every
        self._lock = threading.RLock()
        conn = sqlite3.connect(path, timeout=30.0, check_same_thread=False)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            conn.commit()
        except BaseException:
            conn.close()
            raise
        self._conn = conn
        self._pending = 0
        self._appended = 0
        self._commits = 0
        self._commit_retries_used = 0
        self._write_seconds = 0.0
        self._closed = False

    def _commit(self) -> None:
        """Commit with the bounded busy-retry; callers hold the lock."""
        delay = self.commit_backoff
        failed = 0
        while True:
            try:
                self._conn.commit()
                break
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                failed += 1
                if failed >= self.commit_retries:
                    self._commit_retries_used += failed
                    raise StoreUnavailable(
                        f"{self.path!r} still locked after {failed} "
                        f"commit attempts: {exc}"
                    ) from exc
                time.sleep(delay)
                delay *= 2
        self._commit_retries_used += failed
        self._commits += 1

    # -- write path ------------------------------------------------------
    def append(self, event: LifecycleEvent) -> int:
        """Append one event; returns its store-assigned ``seq``.

        The row may sit in an uncommitted transaction until the next
        batch boundary or :meth:`flush`; the returned seq is final either
        way (SQLite allocates it at insert time).
        """
        with self._lock:
            started = time.perf_counter()
            cursor = self._conn.execute(
                "INSERT INTO events "
                "(run_id, kind, vtime, wtime, job_id, task_index, worker_id,"
                " payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    event.run_id,
                    event.kind,
                    event.vtime,
                    event.wtime,
                    event.job_id,
                    event.task_index,
                    event.worker_id,
                    canonical_json(dict(event.payload)),
                ),
            )
            seq = cursor.lastrowid
            assert seq is not None
            event.seq = seq
            self._pending += 1
            self._appended += 1
            if self._pending >= self.flush_every:
                self._commit()
                self._pending = 0
            self._write_seconds += time.perf_counter() - started
            return seq

    def flush(self) -> None:
        """Commit any buffered appends (makes them crash-durable)."""
        with self._lock:
            if self._pending:
                started = time.perf_counter()
                self._commit()
                self._pending = 0
                self._write_seconds += time.perf_counter() - started

    def register_run(self, spec: RunSpec, created_w: float) -> None:
        """Record a run's configuration (idempotent on the run id)."""
        config = canonical_json(run_spec_to_json(spec))
        with self._lock:
            self._conn.execute(
                "INSERT OR IGNORE INTO runs (run_id, created_w, config) "
                "VALUES (?, ?, ?)",
                (run_id(spec), created_w, config),
            )
            self._commit()

    # -- read path -------------------------------------------------------
    def events(
        self, run_id: str | None = None, after_seq: int = 0
    ) -> Iterator[LifecycleEvent]:
        """Committed events in seq order, optionally one run's tail.

        Flushes first so a same-process reader always sees every append
        that happened before the call.
        """
        self.flush()
        with self._lock:
            if run_id is None:
                rows = self._conn.execute(
                    "SELECT seq, run_id, kind, vtime, wtime, job_id, "
                    "task_index, worker_id, payload FROM events "
                    "WHERE seq > ? ORDER BY seq",
                    (after_seq,),
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT seq, run_id, kind, vtime, wtime, job_id, "
                    "task_index, worker_id, payload FROM events "
                    "WHERE run_id = ? AND seq > ? ORDER BY seq",
                    (run_id, after_seq),
                ).fetchall()
        for row in rows:
            yield LifecycleEvent(
                seq=row[0],
                run_id=row[1],
                kind=row[2],
                vtime=row[3],
                wtime=row[4],
                job_id=row[5],
                task_index=row[6],
                worker_id=row[7],
                payload=json.loads(row[8]),
            )

    def replay_rows(
        self, run_id: str
    ) -> tuple[tuple[int, dict[str, Any]] | None, list[tuple[Any, ...]]]:
        """The run's snapshot (as :meth:`latest_snapshot`) and the rows
        after it, ``(seq, kind, vtime, wtime, job_id, payload)`` in seq
        order with the payload as JSON text, read under one lock hold.
        """
        self.flush()
        with self._lock:
            snapshot = self.latest_snapshot(run_id)
            rows = self._conn.execute(
                "SELECT seq, kind, vtime, wtime, job_id, payload FROM events "
                "WHERE run_id = ? AND seq > ? ORDER BY seq",
                (run_id, 0 if snapshot is None else snapshot[0]),
            ).fetchall()
        return snapshot, rows

    def event_count(self, run_id: str | None = None) -> int:
        self.flush()
        with self._lock:
            if run_id is None:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM events"
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM events WHERE run_id = ?", (run_id,)
                ).fetchone()
        count: int = row[0]
        return count

    def run_configs(self) -> dict[str, RunSpec]:
        """Every registered run's configuration, keyed by run id."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT run_id, config FROM runs ORDER BY created_w"
            ).fetchall()
        return {
            row[0]: run_spec_from_json(json.loads(row[1])) for row in rows
        }

    # -- snapshots / compaction ------------------------------------------
    def save_snapshot(
        self, run_id: str, upto_seq: int, state: Mapping[str, Any],
        created_w: float,
    ) -> None:
        """Store a folded-state checkpoint covering ``upto_seq``.

        It replaces the run's checkpoint unless that one covers more:
        two checkpoints may save in either order, and the newer one may
        already have compacted the events the older one would need.
        """
        with self._lock:
            self.flush()
            self._conn.execute(
                "INSERT INTO snapshots (run_id, upto_seq, created_w, state) "
                "VALUES (?, ?, ?, ?) ON CONFLICT (run_id) DO UPDATE SET "
                "upto_seq = excluded.upto_seq, created_w = excluded.created_w, "
                "state = excluded.state "
                "WHERE excluded.upto_seq >= snapshots.upto_seq",
                (run_id, upto_seq, created_w, canonical_json(dict(state))),
            )
            self._commit()

    def latest_snapshot(
        self, run_id: str
    ) -> tuple[int, dict[str, Any]] | None:
        """The run's checkpoint as ``(upto_seq, state)``, if any."""
        with self._lock:
            row = self._conn.execute(
                "SELECT upto_seq, state FROM snapshots WHERE run_id = ?",
                (run_id,),
            ).fetchone()
        if row is None:
            return None
        return int(row[0]), json.loads(row[1])

    def compact(self, run_id: str) -> int:
        """Delete the run's events covered by its snapshot; returns count.

        Without a snapshot this deletes nothing — compaction never
        discards state that replay could not reconstruct.  One statement
        reads the snapshot's seq and deletes, so a checkpoint saving
        concurrently cannot slip between the two.
        """
        with self._lock:
            self.flush()
            cursor = self._conn.execute(
                "DELETE FROM events WHERE run_id = ? AND seq <= "
                "(SELECT upto_seq FROM snapshots WHERE run_id = ?)",
                (run_id, run_id),
            )
            self._commit()
            return cursor.rowcount

    # -- lifecycle / stats -----------------------------------------------
    def stats(self) -> dict[str, float]:
        """Write-path counters for the benchmark harness."""
        with self._lock:
            return {
                "events_appended": float(self._appended),
                "commits": float(self._commits),
                "commit_retries": float(self._commit_retries_used),
                "write_seconds": self._write_seconds,
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self.flush()
            self._conn.close()
            self._closed = True

    def __enter__(self) -> "EventStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
