"""Percentile computation (linear interpolation, matching numpy)."""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import ConfigurationError


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100) with linear interpolation."""
    return percentile_of_sorted(sorted(values), p)


def percentile_of_sorted(xs: Sequence[float], p: float) -> float:
    """:func:`percentile` of ``xs``, which must already be sorted ascending.

    Lets a caller sort once and take several percentiles of the same list.
    """
    if not xs:
        raise ConfigurationError("cannot take a percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {p}")
    if len(xs) == 1:
        return xs[0]
    rank = (p / 100.0) * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    if xs[lo] == xs[hi]:
        return xs[lo]  # avoids float drift when interpolating equal values
    frac = rank - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac
