"""Percentile computation (linear interpolation, matching numpy).

One rule places the ``p``-th percentile of ``n`` sorted values ``frac``
of the way between two ranks (:class:`_Rank`).  The list functions read
those ranks off a sorted list.  A float column is not sorted at all:
:func:`sorted_at` selects just the ranks asked for with ``np.partition``,
and :func:`column_percentiles` applies the same rule to them, so both
paths return the same float bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from repro.core.errors import ConfigurationError


class _Rank(NamedTuple):
    """Where the ``p``-th percentile of ``n`` sorted values lies: ``frac``
    of the way from the value at rank ``lo`` to the one at rank ``hi``."""

    lo: int
    hi: int
    frac: float

    @classmethod
    def of(cls, n: int, p: float) -> _Rank:
        if not n:
            raise ConfigurationError("cannot take a percentile of no values")
        if not 0.0 <= p <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {p}")
        rank = (p / 100.0) * (n - 1)
        lo = int(rank)
        return cls(lo, min(lo + 1, n - 1), rank - lo)

    def between(self, lo_value: float, hi_value: float) -> float:
        if lo_value == hi_value:
            return lo_value  # avoids float drift when interpolating equal values
        return lo_value * (1.0 - self.frac) + hi_value * self.frac


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100) with linear interpolation."""
    return percentile_of_sorted(sorted(values), p)


def percentile_of_sorted(xs: Sequence[float], p: float) -> float:
    """:func:`percentile` of ``xs``, which must already be sorted ascending.

    Lets a caller sort once and take several percentiles of the same list.
    """
    rank = _Rank.of(len(xs), p)
    return rank.between(xs[rank.lo], xs[rank.hi])


def sorted_at(column: npt.NDArray[np.float64], ranks: Sequence[int]) -> list[float]:
    """The values at ``ranks`` of ``column``'s stable ascending sort, as
    built-in floats, found without sorting the column.

    ``np.partition`` puts an equal value at each rank, but it is not
    stable: where the stable sort keeps ``0.0`` it may put ``-0.0``.  So
    a zero it picks is replaced by the zero of that rank in record order.
    """
    kth = np.asarray(ranks, dtype=np.intp)
    picked: list[float] = np.partition(column, kth)[kth].tolist()
    if 0.0 in picked:
        zeros = np.flatnonzero(column == 0.0)
        first_zero = np.count_nonzero(column < 0.0)
        for i, value in enumerate(picked):
            if value == 0.0:
                picked[i] = column[zeros[kth[i] - first_zero]].item()
    return picked


def column_percentiles(
    column: npt.NDArray[np.float64], ps: Sequence[float]
) -> tuple[float, ...]:
    """:func:`percentile_of_sorted` of ``column``'s stable ascending sort
    at each of ``ps``, reading only the ranks they need."""
    rules = [_Rank.of(column.size, p) for p in ps]
    values = sorted_at(column, [r for rule in rules for r in (rule.lo, rule.hi)])
    return tuple(
        rule.between(lo, hi) for rule, lo, hi in zip(rules, values[::2], values[1::2])
    )
