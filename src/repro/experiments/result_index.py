"""Persistent SQLite index over the on-disk run cache.

The disk tier (:class:`repro.experiments.parallel.DiskCache`) stores one
pickled ``RunResult`` blob per cache key.  Everything the cache needs to
know *about* those blobs — which keys exist, how big they are, when they
were last used, and what produced them — used to be answered by globbing
the cache directory and ``stat``-ing every entry on each size-cap
enforcement.  This module replaces those scans with a single-table
SQLite index at ``<cache root>/index.db``:

``entries(path PRIMARY KEY, key, version, size, mtime, policy, seed,
spec_digest, trace_digest)``

* ``path`` is the blob's location *relative to the cache root* (e.g.
  ``v3/<key>.pkl``), so the row stays valid if the cache directory is
  moved, and stale-version blobs index cleanly next to current ones.
* ``key``/``version`` mirror the path components for queries.
* ``size``/``mtime`` drive the LRU size cap: eviction is one ``ORDER BY
  mtime`` query instead of a filesystem walk.
* ``policy``/``seed``/``spec_digest``/``trace_digest`` are provenance
  recorded at store time (what run produced the blob).  They are *not*
  recoverable from a blob's filename — the key is a one-way hash — so a
  rebuild from blobs leaves them ``NULL``; only fresh stores fill them.

The index is an accelerator, never an authority over correctness: blobs
remain self-contained pickles, every operation degrades gracefully when
SQLite is unavailable (the caller falls back to directory scans), and
:meth:`reconcile` rebuilds the index from the blobs on disk — the
migration path for caches that predate the index, and the self-healing
path when another process (or a test) touches blobs behind our back.

Each instance keeps one WAL-mode connection per process
(:mod:`repro.core.sqlite`, shared with the service event store), opened
by the first operation that needs it and held until :meth:`close`: a
connection per operation made the index the largest cost of a sweep's
parent process.  The connection is tagged with the process id that
opened it, so a ``fork``-ed child opens its own instead of reusing the
parent's handle.  WAL's ``index.db-wal``/``index.db-shm`` sidecars are
never blobs: scans match ``*.pkl`` only.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.core.errors import StoreUnavailable
from repro.core.sqlite import commit, connect_wal

#: Name of the database file inside the cache root.
INDEX_FILENAME = "index.db"

_SCHEMA = """\
CREATE TABLE IF NOT EXISTS entries (
    path TEXT PRIMARY KEY,
    key TEXT NOT NULL,
    version TEXT NOT NULL,
    size INTEGER NOT NULL,
    mtime REAL NOT NULL,
    policy TEXT,
    seed INTEGER,
    spec_digest TEXT,
    trace_digest TEXT
);
CREATE INDEX IF NOT EXISTS entries_mtime ON entries (mtime);
CREATE INDEX IF NOT EXISTS entries_key ON entries (key);
"""


class ResultIndex:
    """The ``index.db`` sidecar of one disk-cache root.

    Every method is safe to call whether or not the database (or even
    the cache directory) exists; SQLite-level failures — locked files,
    corrupt databases, read-only filesystems — disable the index for
    this instance (:attr:`available` turns ``False``) instead of
    propagating, so the owning cache can fall back to directory scans.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.db_path = self.root / INDEX_FILENAME
        self._disabled = False
        self._conn: sqlite3.Connection | None = None
        self._pid = 0  # process that opened ``_conn``

    @property
    def available(self) -> bool:
        """False once a SQLite failure has disabled this instance."""
        return not self._disabled

    def close(self) -> None:
        """Close this process's connection; the next operation reopens it."""
        conn, self._conn = self._conn, None
        if conn is not None and self._pid == os.getpid():
            conn.close()

    # -- connection plumbing -------------------------------------------
    def _connection(self, create: bool) -> sqlite3.Connection | None:
        """This process's connection, or ``None`` when unavailable.

        ``create=False`` read paths never materialize the database: a
        cache that is only ever read from stays a plain directory.
        """
        if self._disabled:
            return None
        if self._conn is not None:
            if self._pid == os.getpid():
                return self._conn
            # Inherited across fork: drop the parent's handle before
            # opening ours, never use it.
            self._conn = None
        if not create and not self.db_path.is_file():
            return None
        try:
            if create:
                self.root.mkdir(parents=True, exist_ok=True)
            self._conn = connect_wal(self.db_path, _SCHEMA, timeout=5.0)
        except (sqlite3.Error, OSError):
            self._disabled = True
            return None
        self._pid = os.getpid()
        return self._conn

    def _run(self, create: bool, fn):
        """``fn(conn)`` as one committed transaction, or ``None``."""
        conn = self._connection(create)
        if conn is None:
            return None
        try:
            result = fn(conn)
            commit(conn, self.db_path)
            return result
        except (sqlite3.Error, StoreUnavailable):
            self._disabled = True
            self.close()  # discards the failed transaction
            return None

    # -- writes ---------------------------------------------------------
    def record(
        self,
        rel_path: str,
        size: int,
        mtime: float,
        meta: Mapping | None = None,
    ) -> None:
        """Insert or replace the row for one stored blob."""
        key, version = _key_and_version(rel_path)
        meta = meta or {}
        row = (
            rel_path,
            key,
            version,
            size,
            mtime,
            meta.get("policy"),
            meta.get("seed"),
            meta.get("spec_digest"),
            meta.get("trace_digest"),
        )
        self._run(
            True,
            lambda conn: conn.execute(
                "INSERT OR REPLACE INTO entries VALUES (?,?,?,?,?,?,?,?,?)",
                row,
            ),
        )

    def touch(self, rel_path: str, mtime: float) -> None:
        """Refresh one row's LRU recency (cache hit)."""
        self._run(
            False,
            lambda conn: conn.execute(
                "UPDATE entries SET mtime = ? WHERE path = ?",
                (mtime, rel_path),
            ),
        )

    def remove(self, rel_paths: Iterable[str]) -> None:
        paths = [(p,) for p in rel_paths]
        if not paths:
            return
        self._run(
            False,
            lambda conn: conn.executemany(
                "DELETE FROM entries WHERE path = ?", paths
            ),
        )

    # -- reads ----------------------------------------------------------
    def lookup(self, rel_path: str) -> tuple[int, float] | None:
        """(size, mtime) of one indexed blob, or ``None``."""
        return self._run(
            False,
            lambda conn: conn.execute(
                "SELECT size, mtime FROM entries WHERE path = ?", (rel_path,)
            ).fetchone(),
        )

    def total_bytes(self) -> int | None:
        """Summed size of every indexed blob; ``None`` when unavailable."""
        row = self._run(
            False,
            lambda conn: conn.execute(
                "SELECT COALESCE(SUM(size), 0) FROM entries"
            ).fetchone(),
        )
        return None if row is None else int(row[0])

    def lru_entries(self) -> list[tuple[float, str, int]] | None:
        """Every row as (mtime, rel_path, size), least recent first."""
        return self._run(
            False,
            lambda conn: conn.execute(
                "SELECT mtime, path, size FROM entries ORDER BY mtime, path"
            ).fetchall(),
        )

    def provenance(self, rel_path: str) -> tuple | None:
        """(policy, seed, spec_digest, trace_digest) recorded at store time."""
        return self._run(
            False,
            lambda conn: conn.execute(
                "SELECT policy, seed, spec_digest, trace_digest "
                "FROM entries WHERE path = ?",
                (rel_path,),
            ).fetchone(),
        )

    def count(self) -> int:
        row = self._run(
            False,
            lambda conn: conn.execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone(),
        )
        return 0 if row is None else int(row[0])

    # -- rebuild / migration --------------------------------------------
    def reconcile(self, blobs: Sequence[tuple[float, str, int]]) -> bool:
        """Make the index agree with the blobs actually on disk.

        ``blobs`` is the scan result: (mtime, rel_path, size) for every
        ``*.pkl`` under the cache root.  Rows without a blob are
        dropped; blobs without a row are adopted (provenance ``NULL`` —
        this *is* the rebuild-from-blobs migration for pre-index
        caches); rows whose size/mtime drifted (``os.utime``, rewrites
        by other writers) are refreshed, keeping their provenance.
        Returns ``True`` when the index is usable afterwards.
        """
        if not blobs and not self.db_path.is_file():
            return self.available  # nothing on disk, nothing to create

        def _apply(conn: sqlite3.Connection):
            on_disk = {rel: (size, mtime) for mtime, rel, size in blobs}
            stale = [
                (path,)
                for (path,) in conn.execute("SELECT path FROM entries")
                if path not in on_disk
            ]
            conn.executemany("DELETE FROM entries WHERE path = ?", stale)
            for rel, (size, mtime) in on_disk.items():
                key, version = _key_and_version(rel)
                conn.execute(
                    "INSERT INTO entries (path, key, version, size, mtime) "
                    "VALUES (?,?,?,?,?) "
                    "ON CONFLICT(path) DO UPDATE SET size = ?, mtime = ?",
                    (rel, key, version, size, mtime, size, mtime),
                )
            return True

        return bool(self._run(True, _apply))


def _key_and_version(rel_path: str) -> tuple[str, str]:
    """Split ``v3/<key>.pkl`` into its key and version-directory parts."""
    directory, _, name = rel_path.rpartition(os.sep)
    return name.removesuffix(".pkl"), directory.rpartition(os.sep)[2]
