"""Figures 10-11: Hawk normalized to a split cluster.

The split baseline dedicates 17% of nodes to short jobs (distributed
scheduling) and 83% to long jobs (centralized scheduling), with no shared
partition and no stealing.  Paper findings: the split cluster is slightly
better for long jobs but greatly increases short-job runtimes at
intermediate sizes, because short tasks cannot leverage general-partition
nodes.
"""

from __future__ import annotations

from repro.experiments.config import (
    GOOGLE_UTILIZATION_TARGETS,
    RunSpec,
    sweep_sizes,
)
from repro.experiments.report import FigureResult
from repro.experiments.sweeps import sweep
from repro.experiments.traces import google_workload


def run(
    scale: str = "full",
    seed: int = 0,
    utilization_targets=GOOGLE_UTILIZATION_TARGETS,
    n_seeds: int = 1,
) -> FigureResult:
    workload = google_workload(scale)
    cutoff = workload.cutoff
    sizes = sweep_sizes(workload.trace(seed), utilization_targets)
    hawk = RunSpec(
        scheduler="hawk",
        n_workers=1,
        cutoff=cutoff,
        short_partition_fraction=workload.short_partition_fraction,
        seed=seed,
    )
    split = RunSpec(
        scheduler="split",
        n_workers=1,
        cutoff=cutoff,
        short_partition_fraction=workload.short_partition_fraction,
        seed=seed,
    )
    result = FigureResult(
        figure_id="Figures 10-11",
        title="Hawk normalized to split cluster (Google trace)",
        headers=(
            "nodes",
            "util(split)",
            "short p50",
            "short p90",
            "long p50",
            "long p90",
        ),
    )
    points = sweep(workload, sizes, hawk, split, n_seeds=n_seeds)
    for point in points:
        result.add_row(
            point.n_workers,
            point.cell("baseline_median_utilization"),
            point.cell("short_p50_ratio"),
            point.cell("short_p90_ratio"),
            point.cell("long_p50_ratio"),
            point.cell("long_p90_ratio"),
        )
    result.add_note(
        "Figure 10 = short columns (Hawk far better in the mid-range), "
        "Figure 11 = long columns (split slightly better)"
    )
    result.add_replica_note(n_seeds)
    return result
