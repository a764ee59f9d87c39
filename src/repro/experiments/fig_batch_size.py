"""Batch-size sensitivity of constrained batch sampling (sparrow-batch).

The ``sparrow-batch`` scenario policy (PR 3) caps each job's probe
traffic at a ``batch_size`` budget instead of always sending
``probe_ratio * tasks`` probes.  This driver sweeps that budget at the
high-load cluster size and reports runtimes normalized to unconstrained
Sparrow on the same trace: at small budgets every job gets exactly one
probe per task (no sampling choice — ratios well above 1 for short
jobs), and as the budget grows the policy converges to Sparrow from
below (ratios -> 1).  The interesting question is the same one Figure 15
asks of the steal cap: how small a budget already captures most of the
benefit of unconstrained probing?

Built entirely on registry identities: the workload is a
:class:`~repro.workloads.registry.WorkloadSpec`, the policy axis is a
``params`` override on one ``RunSpec`` — no bespoke trace or scheduler
wiring anywhere.
"""

from __future__ import annotations

from repro.experiments.config import RunSpec, high_load_size
from repro.experiments.report import FigureResult
from repro.experiments.sweeps import RATIO_METRICS, SweepJob, multi_sweep
from repro.workloads.registry import at_scale

#: The probe-budget axis: 1 task-probe floor up to effectively-Sparrow.
DEFAULT_BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def run(
    scale: str = "full",
    seed: int = 0,
    batch_sizes=DEFAULT_BATCH_SIZES,
    n_seeds: int = 1,
) -> FigureResult:
    workload = at_scale("google", scale)
    n = high_load_size(workload.trace(seed))
    # Each budget normalizes to the same replica's Sparrow run (matched
    # seeds and trace draw); the shared Sparrow runs execute once.
    sparrow = RunSpec.for_workload(workload, "sparrow", n, seed)
    batch = RunSpec.for_workload(workload, "sparrow-batch", n, seed)
    jobs = [
        SweepJob(workload, (n,), batch.with_(params={"batch_size": b}), sparrow)
        for b in batch_sizes
    ]

    result = FigureResult(
        figure_id="Figure B (batch size)",
        title=f"sparrow-batch normalized to Sparrow ({n} nodes)",
        headers=("batch size", "short p50", "short p90", "long p50", "long p90"),
    )
    for batch_size, (point,) in zip(batch_sizes, multi_sweep(jobs, n_seeds=n_seeds)):
        result.add_row(batch_size, *point.cells(*RATIO_METRICS))
    result.add_note(
        "probe budget per job; the floor of one probe per task applies at "
        "batch size 1, so small budgets remove Sparrow's sampling choice"
    )
    result.add_note(
        "ratios -> 1 as the budget stops binding (sparrow-batch converges "
        "to Sparrow); the knee shows the cheapest budget that keeps "
        "Sparrow-level latency"
    )
    result.add_replica_note(n_seeds)
    return result
