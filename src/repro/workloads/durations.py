"""Shared per-task duration spreading used by the trace generators."""

from __future__ import annotations

from itertools import accumulate, islice
from typing import Iterator, Sequence

import numpy as np


def spread_durations(
    rng: np.random.Generator, jobs: Sequence[tuple[int, float]], cv: float
) -> list[tuple[float, ...]]:
    """Per-task durations of each ``(n_tasks, mean)`` job, in job order.

    Draws ``N(mean, cv * mean)`` per task, floors at 5% of the mean, and
    rescales so the job's realized mean is exactly the drawn one — the
    recipe the Google-like generator calibrates against (its published
    task-seconds share depends on the exact-mean property), shared by
    the scenario workloads so the generators cannot silently diverge.
    A single-task job, or any job when ``cv == 0``, gets its mean and
    draws nothing.

    Every draw comes from one ``rng.normal`` over the multi-task jobs'
    tasks.  The Generator fills the vector element by element, so the
    stream, and every duration, is that of one ``normal(mean, cv * mean,
    size=n_tasks)`` call per job in the same order.
    """
    varies = cv != 0.0
    spread = [(n, m) for n, m in jobs if n > 1] if varies else []
    flat: Iterator[float] = iter(())
    if len(spread) == 1:
        # One job draws around a scalar mean: the same draws, no per-task
        # mean vector or slicing.
        ((n, m),) = spread
        raw = rng.normal(m, cv * m, size=n)
        np.maximum(raw, 0.05 * m, out=raw)
        raw *= m * n / float(raw.sum())
        flat = iter(raw.tolist())
    elif spread:
        counts = [n for n, _ in spread]
        means = np.repeat(np.array([m for _, m in spread], dtype=float), counts)
        raw = rng.normal(means, cv * means)
        np.maximum(raw, 0.05 * means, out=raw)
        stops = list(accumulate(counts))
        scales = [
            m * n / float(raw[start:stop].sum())
            for (n, m), start, stop in zip(spread, [0, *stops], stops)
        ]
        raw *= np.repeat(scales, counts)
        flat = iter(raw.tolist())
    return [
        tuple(islice(flat, n)) if varies and n > 1 else (float(m),) * n
        for n, m in jobs
    ]
