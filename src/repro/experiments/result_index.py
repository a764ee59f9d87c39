"""In-memory size and LRU index over the on-disk run cache.

The disk tier (:class:`repro.experiments.parallel.DiskCache`) keeps one
pickled ``RunResult`` blob per cache key in its live directory.  Its size
cap needs the blobs' summed size and which was used least recently.
:class:`ResultIndex` keeps both in memory: an insertion-ordered dict from
each blob's file name (``<key>.pkl``) to its size, least recently used
first, plus a running byte total.

It fills itself with one ``os.scandir`` listing of the directory's
``*.pkl`` files, sorted by mtime, the first time :meth:`total_bytes` or
:meth:`lru_entries` is asked, which only the size cap does.  Until then
:meth:`record`, :meth:`touch` and :meth:`remove` do nothing: the listing
will find each blob and the mtime its store or hit stamped on it.  After
the listing the cache reports every store, hit and deletion it makes, so
the index stays exact for that cache instance; blobs another process
stores or deletes are seen when a cache is next opened.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable


class ResultIndex:
    """Sizes and LRU order of the blobs in one disk-cache directory."""

    def __init__(self, directory: Path | str) -> None:
        self.directory = os.fspath(directory)
        # file name -> size, least recently used first; None until loaded.
        self._sizes: dict[str, int] | None = None
        self._total = 0

    def _load(self) -> dict[str, int]:
        """List the directory once: every ``*.pkl`` blob, oldest mtime first."""
        found: list[tuple[int, str, int]] = []
        try:
            with os.scandir(self.directory) as entries:
                for entry in entries:
                    if entry.name.endswith(".pkl"):
                        try:
                            stat = entry.stat()
                        except OSError:  # deleted while listing
                            continue
                        found.append((stat.st_mtime_ns, entry.name, stat.st_size))
        except OSError:  # no cache yet
            pass
        found.sort()
        self._sizes = {name: size for _, name, size in found}
        self._total = sum(self._sizes.values())
        return self._sizes

    def record(self, name: str, size: int) -> None:
        """A blob was stored (or overwritten): it is now the most recent."""
        if self._sizes is not None:
            self._total += size - self._sizes.pop(name, 0)
            self._sizes[name] = size

    def touch(self, name: str) -> None:
        """A blob was hit: it is now the most recent."""
        if self._sizes is not None and name in self._sizes:
            self._sizes[name] = self._sizes.pop(name)

    def remove(self, names: Iterable[str]) -> None:
        """Blobs were deleted."""
        if self._sizes is not None:
            for name in names:
                self._total -= self._sizes.pop(name, 0)

    def total_bytes(self) -> int:
        """Summed size of every blob in the directory."""
        if self._sizes is None:
            self._load()
        return self._total

    def lru_entries(self) -> list[tuple[str, int]]:
        """Every blob as (file name, size), least recently used first."""
        if self._sizes is None:
            return list(self._load().items())
        return list(self._sizes.items())
