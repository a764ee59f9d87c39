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
from repro.experiments.sweeps import POINT_METRICS, sweep
from repro.workloads.registry import at_scale


def run(
    scale: str = "full",
    seed: int = 0,
    utilization_targets=GOOGLE_UTILIZATION_TARGETS,
    n_seeds: int = 1,
) -> FigureResult:
    workload = at_scale("google", scale)
    sizes = sweep_sizes(workload.trace(seed), utilization_targets)
    hawk = RunSpec.for_workload(workload, "hawk", seed=seed)
    split = RunSpec.for_workload(workload, "split", seed=seed)
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
        result.add_row(point.n_workers, *point.cells(*POINT_METRICS))
    result.add_note(
        "Figure 10 = short columns (Hawk far better in the mid-range), "
        "Figure 11 = long columns (split slightly better)"
    )
    result.add_replica_note(n_seeds)
    return result
