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
    median_of_replicas,
    paired_values,
    percentile_of_replicas,
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
    "median_of_replicas",
    "normalized_percentile",
    "paired_values",
    "percentile",
    "percentile_of_replicas",
    "percentile_ratios",
    "stdev",
    "summarize",
    "t_confidence_interval",
]
