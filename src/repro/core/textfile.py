"""One opener for the text files the repo reads and writes.

Traces and event logs are UTF-8 text, gzip-compressed when the name ends
in ``.gz``.  A file cut short or corrupted fails as a
:class:`ConfigurationError` naming the path, not as whatever the
decompressor or decoder raised.
"""

from __future__ import annotations

import gzip
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Literal

from repro.core.errors import ConfigurationError


@contextmanager
def open_text(path: Path, mode: Literal["r", "w"]) -> Iterator[IO[str]]:
    """Open ``path`` as UTF-8 text, through gzip iff its suffix is ``.gz``.

    ``EOFError``, ``gzip.BadGzipFile`` and ``UnicodeDecodeError`` raised
    while the file is open become :class:`ConfigurationError`.
    """
    handle: IO[str]
    if path.suffix != ".gz":
        handle = open(path, mode, encoding="utf-8")
    elif mode == "r":
        handle = gzip.open(path, "rt", encoding="utf-8")
    else:
        handle = gzip.open(path, "wt", encoding="utf-8")
    with handle:
        try:
            yield handle
        except (EOFError, gzip.BadGzipFile, UnicodeDecodeError) as exc:
            raise ConfigurationError(
                f"{path}: truncated or corrupt ({type(exc).__name__}: {exc})"
            ) from exc
