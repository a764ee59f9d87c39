"""Figures 12-13: sensitivity to the long/short cutoff threshold.

Hawk-vs-Sparrow ratios at the high-load cluster size while the cutoff
sweeps the paper's values (750 .. 2000 s).  Reporting note: as in the
paper, the job population counted as "long"/"short" changes with the
cutoff — more jobs are short at higher cutoffs.
"""

from __future__ import annotations

from repro.experiments.config import RunSpec, high_load_size
from repro.experiments.report import FigureResult
from repro.experiments.sweeps import LONG_FIRST, SweepJob, multi_sweep
from repro.metrics.stats import mean
from repro.workloads.registry import at_scale

#: The paper's x-axis (seconds); 1129 is Hawk's default Google cutoff.
PAPER_CUTOFFS = (750.0, 1000.0, 1129.0, 1300.0, 1500.0, 2000.0)


def run(
    scale: str = "full",
    seed: int = 0,
    cutoffs=PAPER_CUTOFFS,
    n_seeds: int = 1,
) -> FigureResult:
    workload = at_scale("google", scale)
    n = high_load_size(workload.trace(seed))
    result = FigureResult(
        figure_id="Figures 12-13",
        title=f"Cutoff sensitivity, Hawk normalized to Sparrow ({n} nodes)",
        headers=(
            "cutoff (s)",
            "% jobs long",
            "long p50",
            "long p90",
            "short p50",
            "short p90",
        ),
    )
    jobs = [
        SweepJob(
            workload,
            (n,),
            RunSpec.for_workload(workload, "hawk", n, seed, cutoff=cutoff),
            RunSpec.for_workload(workload, "sparrow", n, seed, cutoff=cutoff),
        )
        for cutoff in cutoffs
    ]
    for cutoff, (point,) in zip(cutoffs, multi_sweep(jobs, n_seeds=n_seeds)):
        traces = [workload.trace(s) for s in point.seeds]
        long_fraction = mean(
            [sum(1 for j in t if j.is_long(cutoff)) / len(t) for t in traces]
        )
        result.add_row(cutoff, 100.0 * long_fraction, *point.cells(*LONG_FIRST))
    result.add_note(
        "Figure 12 = long columns, Figure 13 = short columns; Hawk should "
        "keep its benefits across the whole cutoff range"
    )
    result.add_replica_note(n_seeds)
    return result
