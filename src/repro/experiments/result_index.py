"""In-memory size and LRU index over the on-disk run cache.

The disk tier (:class:`repro.experiments.parallel.DiskCache`) stores one
pickled ``RunResult`` blob per cache key.  Its size cap needs two facts
about those blobs: their summed size, and which was used least recently.
:class:`ResultIndex` keeps both in memory: an insertion-ordered dict
from each blob's path relative to the cache root (e.g. ``v4/<key>.pkl``)
to its size, least recently used first, plus a running byte total.

The index fills itself with one ``os.scandir`` walk over every ``*.pkl``
under the root, sorted by mtime, the first time :meth:`total_bytes` or
:meth:`lru_entries` is asked, which only the size cap does.  Until then
:meth:`record`, :meth:`touch` and :meth:`remove` do nothing, because the
walk will find each blob and the mtime its store or hit stamped on it;
so a cache with no cap never walks.  After the walk the cache reports
every store, hit and deletion it makes, and the index stays exact for
that cache instance.  Blobs that another process stores or deletes later
are seen by the next walk, that is, when a cache is next opened.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable


class ResultIndex:
    """Sizes and LRU order of the blobs under one disk-cache root."""

    def __init__(self, root: Path | str) -> None:
        self.root = os.fspath(root)
        # rel-path -> size, least recently used first; None until loaded.
        self._sizes: dict[str, int] | None = None
        self._total = 0

    def _load(self) -> dict[str, int]:
        """Walk the root once: every ``*.pkl`` blob, oldest mtime first."""
        prefix = os.path.join(self.root, "")
        found: list[tuple[int, str, int]] = []
        pending = [self.root]
        while pending:
            try:
                entries = os.scandir(pending.pop())
            except OSError:  # no cache yet, or a racing deletion
                continue
            with entries:
                for entry in entries:
                    try:
                        if entry.is_dir(follow_symlinks=False):
                            pending.append(entry.path)
                        elif entry.name.endswith(".pkl"):
                            stat = entry.stat()
                            rel = entry.path[len(prefix):]
                            found.append((stat.st_mtime_ns, rel, stat.st_size))
                    except OSError:  # deleted while walking
                        pass
        found.sort()
        self._sizes = {rel: size for _, rel, size in found}
        self._total = sum(self._sizes.values())
        return self._sizes

    def record(self, rel_path: str, size: int) -> None:
        """A blob was stored (or overwritten): it is now the most recent."""
        if self._sizes is not None:
            self._total += size - self._sizes.pop(rel_path, 0)
            self._sizes[rel_path] = size

    def touch(self, rel_path: str) -> None:
        """A blob was hit: it is now the most recent."""
        if self._sizes is not None and rel_path in self._sizes:
            self._sizes[rel_path] = self._sizes.pop(rel_path)

    def remove(self, rel_paths: Iterable[str]) -> None:
        """Blobs were deleted."""
        if self._sizes is not None:
            for rel in rel_paths:
                self._total -= self._sizes.pop(rel, 0)

    def total_bytes(self) -> int:
        """Summed size of every blob under the root."""
        if self._sizes is None:
            self._load()
        return self._total

    def lru_entries(self) -> list[tuple[str, int]]:
        """Every blob as (rel_path, size), least recently used first."""
        if self._sizes is None:
            return list(self._load().items())
        return list(self._sizes.items())
