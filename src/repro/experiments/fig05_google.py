"""Figure 5: Hawk normalized to Sparrow on the Google trace.

5a: long-job p50/p90 ratios vs cluster size.
5b: short-job p50/p90 ratios vs cluster size.
5c: fraction of jobs Hawk improves-or-matches and average runtime ratio.
The paper's headline: up to 80%/90% better p50/p90 for short jobs and up
to 35%/10% for long jobs, with the peak at high-but-not-overloaded sizes.
"""

from __future__ import annotations

from repro.cluster.job import JobClass
from repro.experiments.config import (
    GOOGLE_UTILIZATION_TARGETS,
    RunSpec,
    sweep_sizes,
)
from repro.experiments.report import FigureResult
from repro.experiments.sweeps import POINT_METRICS, extra_metrics, sweep
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
    sparrow = RunSpec.for_workload(workload, "sparrow", seed=seed)
    points = sweep(workload, sizes, hawk, sparrow, n_seeds=n_seeds)

    result = FigureResult(
        figure_id="Figure 5",
        title="Hawk normalized to Sparrow (Google trace)",
        headers=(
            "nodes",
            "util(sparrow)",
            "short p50",
            "short p90",
            "long p50",
            "long p90",
            "frac short improved",
            "avg ratio short",
            "frac long improved",
            "avg ratio long",
        ),
    )
    for point in points:
        frac_s, avg_s = extra_metrics(point, JobClass.SHORT)
        frac_l, avg_l = extra_metrics(point, JobClass.LONG)
        result.add_row(
            point.n_workers,
            *point.cells(*POINT_METRICS),
            frac_s,
            avg_s,
            frac_l,
            avg_l,
        )
    result.add_note(
        "ratios < 1 favor Hawk; the paper reports up to 0.2/0.1 for short "
        "p50/p90 and 0.65/0.9 for long p50/p90, peaking at high load"
    )
    result.add_replica_note(n_seeds)
    return result
