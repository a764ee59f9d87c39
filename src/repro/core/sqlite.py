"""SQLite plumbing of the service event store (its only user): one
WAL-mode connection per store, and one commit path with a bounded retry
for lock contention.
"""

from __future__ import annotations

import os
import sqlite3
import time

from repro.core.errors import StoreUnavailable


def connect_wal(
    path: str | os.PathLike[str], schema: str, *, timeout: float,
    check_same_thread: bool = True,
) -> sqlite3.Connection:
    """Open ``path`` with ``journal_mode=WAL`` and ``synchronous=NORMAL``
    (a commit survives a process crash, not a power loss), then apply
    ``schema``.  ``timeout`` is SQLite's busy timeout in seconds.
    """
    conn = sqlite3.connect(
        path, timeout=timeout, check_same_thread=check_same_thread
    )
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(schema)
        conn.commit()
    except BaseException:
        conn.close()
        raise
    return conn


def commit(
    conn: sqlite3.Connection, path: str | os.PathLike[str],
    retries: int = 5, backoff: float = 0.01,
) -> int:
    """Commit with bounded retry; returns the attempts that failed first.

    Another process holding the database can surface as ``database is
    locked`` / ``busy`` even under WAL.  The commit is tried up to
    ``retries`` times, backing off from ``backoff`` seconds and doubling
    (five attempts at 0.01s wait ~0.15s), then raises
    :class:`StoreUnavailable`.  Other errors re-raise at once.
    """
    delay = backoff
    failed = 0
    while True:
        try:
            conn.commit()
            return failed
        except sqlite3.OperationalError as exc:
            message = str(exc).lower()
            if "locked" not in message and "busy" not in message:
                raise
            failed += 1
            if failed >= retries:
                raise StoreUnavailable(
                    f"{os.fspath(path)!r} still locked after {retries} "
                    f"commit attempts: {exc}"
                ) from exc
            time.sleep(delay)
            delay *= 2
