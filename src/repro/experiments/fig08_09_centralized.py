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
    centralized = RunSpec(
        scheduler="centralized", n_workers=1, cutoff=cutoff, seed=seed
    )
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
        result.add_row(
            point.n_workers,
            point.cell("baseline_median_utilization"),
            point.cell("short_p50_ratio"),
            point.cell("short_p90_ratio"),
            point.cell("long_p50_ratio"),
            point.cell("long_p90_ratio"),
        )
    result.add_note(
        "Figure 8 = short columns (Hawk wins under heavy load), "
        "Figure 9 = long columns (centralized slightly better: whole cluster)"
    )
    result.add_replica_note(n_seeds)
    return result
