"""Figures 8-9: Hawk normalized to a fully centralized scheduler.

The baseline schedules *all* jobs with the Section 3.7 least-waiting-time
algorithm over the whole cluster (no partition, no stealing).  Paper
findings: the centralized scheduler penalizes short jobs under heavy load
(Figure 8) while being slightly better for long jobs, which can use the
entire cluster (Figure 9).
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
    centralized = RunSpec.for_workload(workload, "centralized", seed=seed)
    result = FigureResult(
        figure_id="Figures 8-9",
        title="Hawk normalized to fully centralized (Google trace)",
        headers=(
            "nodes",
            "util(centralized)",
            "short p50",
            "short p90",
            "long p50",
            "long p90",
        ),
    )
    points = sweep(workload, sizes, hawk, centralized, n_seeds=n_seeds)
    for point in points:
        result.add_row(point.n_workers, *point.cells(*POINT_METRICS))
    result.add_note(
        "Figure 8 = short columns (Hawk wins under heavy load), "
        "Figure 9 = long columns (centralized slightly better: whole cluster)"
    )
    result.add_replica_note(n_seeds)
    return result
