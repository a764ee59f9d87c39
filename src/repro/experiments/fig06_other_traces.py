"""Figure 6: Hawk normalized to Sparrow on Cloudera, Facebook and Yahoo.

The paper reports p90 ratios for long and short jobs across cluster
sizes; the short-job improvements are larger than on the Google trace
because the short partitions are less utilized, leaving more stealing
opportunities.
"""

from __future__ import annotations

from repro.experiments.config import GOOGLE_UTILIZATION_TARGETS, RunSpec, sweep_sizes
from repro.experiments.report import FigureResult
from repro.experiments.sweeps import SweepJob, multi_sweep
from repro.workloads.kmeans import ALL_KMEANS_WORKLOADS
from repro.workloads.registry import at_scale


def run(
    scale: str = "full",
    seed: int = 0,
    utilization_targets=GOOGLE_UTILIZATION_TARGETS,
    n_seeds: int = 1,
) -> FigureResult:
    result = FigureResult(
        figure_id="Figure 6",
        title="Hawk normalized to Sparrow (Cloudera / Facebook / Yahoo)",
        headers=(
            "workload",
            "nodes",
            "util(sparrow)",
            "short p90",
            "long p90",
            "short p50",
            "long p50",
        ),
    )
    # All three workloads chain into ONE executor stream: no per-workload
    # batch barrier, so Yahoo's runs start while Cloudera's slowest point
    # is still in flight.
    workloads = [at_scale(spec.name, scale) for spec in ALL_KMEANS_WORKLOADS]
    jobs = [
        SweepJob(
            workload,
            sweep_sizes(workload.trace(seed), utilization_targets),
            RunSpec.for_workload(workload, "hawk", seed=seed),
            RunSpec.for_workload(workload, "sparrow", seed=seed),
        )
        for workload in workloads
    ]
    for workload, points in zip(workloads, multi_sweep(jobs, n_seeds=n_seeds)):
        for point in points:
            result.add_row(
                workload.name,
                point.n_workers,
                *point.cells(
                    "baseline_median_utilization",
                    "short_p90_ratio",
                    "long_p90_ratio",
                    "short_p50_ratio",
                    "long_p50_ratio",
                ),
            )
    result.add_note(
        "the paper plots p90 only (its Figure 6); p50 columns correspond "
        "to its in-text remark that Hawk also improves the median"
    )
    result.add_replica_note(n_seeds)
    return result
