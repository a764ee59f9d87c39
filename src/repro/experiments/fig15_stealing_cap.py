"""Figure 15: sensitivity to the number of stealing attempts.

The maximum number of random nodes an idle server contacts per stealing
round sweeps 1..250; short-job runtimes are normalized to the cap=1 run.
Paper finding: performance increases with the cap, but even a low value
(10) captures most of the benefit.
"""

from __future__ import annotations

from repro.experiments.config import RunSpec, high_load_size
from repro.experiments.report import FigureResult
from repro.experiments.sweeps import SweepJob, multi_sweep
from repro.metrics.stats import mean
from repro.workloads.registry import at_scale

#: The paper's x-axis.
PAPER_CAPS = (1, 2, 3, 4, 5, 10, 15, 20, 25, 50, 75, 100, 250)


def run(
    scale: str = "full",
    seed: int = 0,
    caps=PAPER_CAPS,
    n_seeds: int = 1,
) -> FigureResult:
    workload = at_scale("google", scale)
    n = high_load_size(workload.trace(seed))

    def spec(cap: int) -> RunSpec:
        return RunSpec.for_workload(
            workload, "hawk", n, seed, params={"steal_cap": cap}
        )

    # Each cap normalizes to the same replica's cap=1 run (matched
    # seeds); the shared cap=1 runs execute once.
    jobs = [SweepJob(workload, (n,), spec(cap), spec(1)) for cap in caps]
    result = FigureResult(
        figure_id="Figure 15",
        title=f"Steal-cap sensitivity normalized to cap=1 ({n} nodes)",
        headers=("cap", "short p50", "short p90", "steal success rate"),
    )
    for cap, (point,) in zip(caps, multi_sweep(jobs, n_seeds=n_seeds)):
        result.add_row(
            cap,
            *point.cells("short_p50_ratio", "short_p90_ratio"),
            mean([r.candidate.stealing.success_rate for r in point.replicas]),
        )
    result.add_note(
        "ratios should fall with the cap and flatten by cap≈10 "
        "(paper Section 4.9)"
    )
    result.add_replica_note(n_seeds)
    return result
