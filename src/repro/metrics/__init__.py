"""Metrics: percentiles, normalized comparisons, utilization summaries."""

from repro.metrics.comparison import (
    Comparison,
    average_runtime_ratio,
    compare_runs,
    fraction_improved,
    normalized_percentile,
    percentile_ratios,
)
from repro.metrics.percentiles import percentile
from repro.metrics.stats import (
    SummaryStats,
    mean,
    paired_values,
    stdev,
    summarize,
    t_confidence_interval,
)

__all__ = [
    "Comparison",
    "SummaryStats",
    "average_runtime_ratio",
    "compare_runs",
    "fraction_improved",
    "mean",
    "normalized_percentile",
    "paired_values",
    "percentile",
    "percentile_ratios",
    "stdev",
    "summarize",
    "t_confidence_interval",
]
