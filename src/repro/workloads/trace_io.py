"""Trace file I/O.

The on-disk format mirrors the simulator input of Section 4.1 — one job
per line::

    job_id <TAB> submit_time <TAB> dur_1,dur_2,...,dur_t

Files ending in ``.gz`` are transparently compressed.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, Iterable

from repro.core.errors import ConfigurationError
from repro.workloads.spec import JobSpec, Trace


def _open(path: Path, mode: str) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")  # type: ignore[return-value]
    return open(path, mode)


def write_trace(trace: Iterable[JobSpec], path: str | Path) -> None:
    """Serialize a trace; durations keep full float precision."""
    path = Path(path)
    with _open(path, "w") as f:
        for job in trace:
            durations = ",".join(repr(d) for d in job.task_durations)
            f.write(f"{job.job_id}\t{job.submit_time!r}\t{durations}\n")


def read_trace(path: str | Path, name: str | None = None) -> Trace:
    """Parse a trace file written by :func:`write_trace`."""
    path = Path(path)
    jobs: list[JobSpec] = []
    with _open(path, "r") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, "
                    f"got {len(parts)}"
                )
            try:
                job_id = int(parts[0])
                submit = float(parts[1])
                durations = tuple(float(d) for d in parts[2].split(","))
                jobs.append(JobSpec(job_id, submit, durations))
            except (ValueError, ConfigurationError) as err:
                raise ConfigurationError(f"{path}:{lineno}: {err}") from err
    if not jobs:
        raise ConfigurationError(f"{path}: empty trace file")
    return Trace(jobs, name=name or path.stem)
