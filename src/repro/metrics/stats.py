"""Statistics over seed-replicated runs.

Every metric in the evaluation is a function of a stochastic run, so a
single-seed value is one sample from an unknown distribution.  This
module aggregates per-replica samples into the quantities the figures
and claim tests report:

* :func:`mean` / :func:`stdev` — plain sample statistics (the median
  is :func:`~repro.metrics.percentiles.percentile` at 50);
* :func:`t_confidence_interval` — a Student-t interval on the mean (the
  t quantile is computed in-process via the regularized incomplete beta
  function, so no SciPy dependency);
* :func:`summarize` — all of the above bundled into a
  :class:`SummaryStats`;
* :func:`paired_values` — matched-seed pairing: a comparison metric
  (e.g. a normalized percentile) is evaluated *within* each replica,
  where candidate and baseline share a seed and a trace draw, and only
  then aggregated.  Pairing cancels the trace-level noise common to both
  systems, which is what makes small replica counts informative.  The
  paper-claim tests pair through it; the figures take the ratio inside
  each replica of a :class:`~repro.experiments.sweeps.ReplicatedPoint`
  instead, whose ratio cells are :func:`cell` over the per-replica
  ratios with a null of 1.0.

Degenerate case: ``n = 1`` yields ``stdev = 0`` and a zero-width
interval at the sample itself, and ``mean([x]) == x`` bit-for-bit —
single-seed experiments flow through this module unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, sqrt
from typing import Callable, Sequence, TypeVar

from repro.core.errors import ConfigurationError
from repro.metrics.percentiles import percentile

T = TypeVar("T")

#: Default confidence level for intervals (the paper-standard 95%).
DEFAULT_CONFIDENCE = 0.95


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; ``mean([x]) == x`` exactly (IEEE division by 1)."""
    if not values:
        raise ConfigurationError("cannot take the mean of no values")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (ddof=1); 0.0 for a single value."""
    if not values:
        raise ConfigurationError("cannot take the stdev of no values")
    n = len(values)
    if n == 1:
        return 0.0
    m = mean(values)
    return sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


# -- Student-t quantiles (no SciPy) -------------------------------------
def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    from math import exp, log

    front = exp(
        lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(1.0 - x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, dof: int) -> float:
    """CDF of Student's t distribution with ``dof`` degrees of freedom."""
    if dof <= 0:
        raise ConfigurationError(f"degrees of freedom must be positive, got {dof}")
    if t == 0.0:
        return 0.5
    x = dof / (dof + t * t)
    tail = 0.5 * _betainc(dof / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def t_ppf(q: float, dof: int) -> float:
    """Quantile (inverse CDF) of Student's t, by bisection on :func:`t_cdf`."""
    if not 0.0 < q < 1.0:
        raise ConfigurationError(f"quantile must be in (0, 1), got {q}")
    if q == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    while t_cdf(lo, dof) > q:
        lo *= 2.0
        if lo < -1e12:  # pragma: no cover - defensive
            break
    while t_cdf(hi, dof) < q:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - defensive
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, dof) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def t_test_pvalue(values: Sequence[float], null: float) -> float:
    """Two-sided one-sample Student-t p-value for ``mean(values) == null``.

    Fed with matched-pair metric values (one per replica) this is the
    paired t-test: for per-replica candidate/baseline *ratios* the
    natural null is 1.0 (parity), for differences 0.0.  Degenerate
    cases: a single sample carries no dispersion information (p = 1.0);
    zero sample variance yields 0.0 unless the mean equals the null
    exactly.
    """
    n = len(values)
    if not values:
        raise ConfigurationError("cannot t-test no values")
    m = mean(values)
    if n == 1:
        return 1.0
    s = stdev(values)
    if s == 0.0:
        return 1.0 if m == null else 0.0
    t = (m - null) / (s / sqrt(n))
    return 2.0 * (1.0 - t_cdf(abs(t), n - 1))


def t_confidence_interval(
    values: Sequence[float], confidence: float = DEFAULT_CONFIDENCE
) -> tuple[float, float]:
    """Two-sided Student-t interval on the mean of ``values``.

    ``n = 1`` degenerates to a zero-width interval at the sample: there
    is no dispersion information, and the single-seed path must report
    the point value unchanged.
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    m = mean(values)
    n = len(values)
    if n == 1:
        return (m, m)
    half = t_ppf(0.5 + confidence / 2.0, n - 1) * stdev(values) / sqrt(n)
    return (m - half, m + half)


# -- aggregation --------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SummaryStats:
    """Sample statistics of one metric across replicas.

    ``p_value`` is set when the metric has a natural null hypothesis
    (e.g. 1.0 for candidate/baseline ratios): the two-sided paired-t
    p-value of the replica values against that null.  ``None`` means no
    null applies (plain magnitudes) or there is only one replica.
    """

    n: int
    mean: float
    stdev: float
    median: float
    ci_lo: float
    ci_hi: float
    confidence: float = DEFAULT_CONFIDENCE
    p_value: float | None = None

    @property
    def ci_half(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_hi - self.ci_lo) / 2.0


def summarize(
    values: Sequence[float],
    confidence: float = DEFAULT_CONFIDENCE,
    null: float | None = None,
) -> SummaryStats:
    """All replica statistics for one metric.

    With ``null`` set, the summary also carries the two-sided
    :func:`t_test_pvalue` of the values against that null (reported
    next to the CI band by the table renderer); a single replica has no
    dispersion information, so its p-value stays ``None``.
    """
    lo, hi = t_confidence_interval(values, confidence)
    p_value = (
        t_test_pvalue(values, null)
        if null is not None and len(values) > 1
        else None
    )
    return SummaryStats(
        n=len(values),
        mean=mean(values),
        stdev=stdev(values),
        median=percentile(values, 50.0),
        ci_lo=lo,
        ci_hi=hi,
        confidence=confidence,
        p_value=p_value,
    )


def cell(values: Sequence[float], null: float | None = None) -> float | SummaryStats:
    """A table cell over replicas: one replica's plain value (keeping
    single-seed output bit-identical), else :func:`summarize` of all of
    them, which the report layer renders as ``mean±ci``."""
    return values[0] if len(values) == 1 else summarize(values, null=null)


# -- matched-seed pairing ----------------------------------------------
def paired_values(
    metric: Callable[[T, T], float],
    candidates: Sequence[T],
    baselines: Sequence[T],
) -> list[float]:
    """Evaluate a comparison metric within each matched replica.

    ``candidates[r]`` and ``baselines[r]`` must come from the same
    replica seed (and trace draw); the metric — typically a normalized
    percentile — is computed per pair so that trace-level noise common
    to both systems cancels before aggregation.
    """
    if len(candidates) != len(baselines):
        raise ConfigurationError(
            f"matched pairing needs equal replica counts, got "
            f"{len(candidates)} candidates vs {len(baselines)} baselines"
        )
    if not candidates:
        raise ConfigurationError("matched pairing needs at least one replica")
    return [metric(c, b) for c, b in zip(candidates, baselines)]

