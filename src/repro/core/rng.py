"""Seeded randomness helpers.

Every stochastic component in the reproduction receives its own named
stream derived from a single experiment seed, so that e.g. changing the
stealing policy's random choices does not perturb the workload generator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
# numpy loads ``numpy.random`` lazily; load it with this module so the
# first draw (in a server, the first job of a run) does not pay for it.
import numpy.random  # noqa: F401

# Fixed, arbitrary constants that map stream names to distinct substreams.
_STREAM_SALT = 0x5F3759DF


def make_rng(seed: int, stream: str = "") -> np.random.Generator:
    """Create a deterministic generator for ``(seed, stream)``.

    Distinct ``stream`` names yield statistically independent generators
    for the same ``seed``.
    """
    material = [seed, _STREAM_SALT]
    material.extend(ord(c) for c in stream)
    return np.random.default_rng(np.random.SeedSequence(material))


def sample_without_replacement(
    rng: np.random.Generator, population: int, k: int
) -> list[int]:
    """Sample ``k`` distinct integers from ``range(population)``.

    Uses Floyd's algorithm: O(k) time and memory regardless of the
    population size, which matters when probing 2t servers out of tens of
    thousands.
    """
    if k > population:
        raise ValueError(f"cannot sample {k} items from population of {population}")
    # One vectorized call replaces the per-step scalar draws.  For an
    # array of bounds, ``Generator.integers`` applies Lemire rejection
    # per element in bound order — bit-stream identical to the scalar
    # ``integers(0, j + 1)`` loop it replaces (pinned by
    # tests/core/test_rng.py::test_sample_matches_scalar_floyd).
    result: list[int] = rng.integers(
        0, np.arange(population - k + 1, population + 1)
    ).tolist()
    # Floyd replaces a draw by ``j`` only when it repeats an earlier one,
    # so pairwise-distinct draws already are the sample.
    if len(set(result)) < k:
        selected: set[int] = set()
        j = population - k
        for i, t in enumerate(result):
            if t in selected:
                t = result[i] = j
            selected.add(t)
            j += 1
    # Floyd's algorithm biases order; shuffle for a uniformly random order.
    rng.shuffle(result)  # type: ignore[arg-type]
    return result


def spread_sample(
    rng: np.random.Generator, population: Sequence[int], k: int
) -> list[int]:
    """Pick ``k`` items from ``population``, as evenly spread as possible.

    When ``k <= len(population)`` this is a plain sample without
    replacement.  When ``k`` exceeds the population (a job with more probes
    than eligible servers), items repeat, but no item is used ``n+1`` times
    before every item has been used ``n`` times.  This mirrors how a probe
    fan-out larger than the cluster must wrap around.
    """
    n = len(population)
    if n == 0:
        raise ValueError("cannot sample from an empty population")
    if k <= n:
        idx = sample_without_replacement(rng, n, k)
        if isinstance(population, range) and population == range(n):
            return idx  # ``range(0, n)``: every item is its own index
        return [population[i] for i in idx]
    result: list[int] = []
    full_rounds, remainder = divmod(k, n)
    for _ in range(full_rounds):
        order = list(range(n))
        rng.shuffle(order)
        result.extend(population[i] for i in order)
    if remainder:
        idx = sample_without_replacement(rng, n, remainder)
        result.extend(population[i] for i in idx)
    return result
