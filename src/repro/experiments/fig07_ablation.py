"""Figure 7: breaking down Hawk's benefits.

Each of Hawk's three mechanisms is removed in turn and the resulting
runtimes are normalized to full Hawk (values > 1 mean the variant is
worse).  Paper findings: without centralized scheduling long jobs take a
significant hit (and short jobs improve slightly); without the partition
short jobs suffer and long jobs slightly improve; without stealing both
suffer, short jobs greatly.
"""

from __future__ import annotations

from repro.experiments.config import RunSpec, high_load_size
from repro.experiments.report import FigureResult
from repro.experiments.sweeps import RATIO_METRICS, SweepJob, multi_sweep
from repro.schedulers import registry
from repro.workloads.registry import at_scale


def run(
    scale: str = "full",
    seed: int = 0,
    n_seeds: int = 1,
) -> FigureResult:
    # The ablation family comes straight off the policy registry, read
    # at run time: any policy registered with ``ablation_of="hawk"`` —
    # including one registered outside this package — joins the figure.
    variants = registry.ablations_of("hawk")
    workload = at_scale("google", scale)
    n = high_load_size(workload.trace(seed))
    hawk = RunSpec.for_workload(workload, "hawk", n, seed)
    # Each variant normalizes to full Hawk within every replica (matched
    # seeds and trace draw); the shared full-Hawk runs execute once.
    jobs = [SweepJob(workload, (n,), hawk.with_(scheduler=v), hawk) for v in variants]

    result = FigureResult(
        figure_id="Figure 7",
        title=f"Ablation normalized to full Hawk ({n} nodes)",
        headers=("variant", "short p50", "short p90", "long p50", "long p90"),
    )
    for variant, (point,) in zip(variants, multi_sweep(jobs, n_seeds=n_seeds)):
        result.add_row(variant, *point.cells(*RATIO_METRICS))
    result.add_note("values > 1: removing the mechanism hurts that class")
    result.add_replica_note(n_seeds, cells="cells")
    return result
