"""Scenario workloads through the standard Hawk-vs-Sparrow comparison.

The registry-only scenario workloads (``pareto-heavy``,
``bursty-diurnal`` — see :mod:`repro.workloads.scenarios`) run the
canonical candidate-vs-baseline point at their high-load cluster size.
This driver is deliberately generic: it reads *everything* — trace,
cutoff, partition sizing — off the workload registry entries, so any
newly registered workload joins the figure by name with zero changes
here.  It exists both as the committed proof that the trace zoo is open
end to end and as the paper-style sanity check for new scenarios: Hawk's
short-job benefit should survive workload shapes the paper never
evaluated.
"""

from __future__ import annotations

from repro.cluster.job import JobClass
from repro.experiments.config import RunSpec, high_load_size
from repro.experiments.report import FigureResult
from repro.experiments.sweeps import (
    POINT_METRICS,
    SweepJob,
    extra_metrics,
    multi_sweep,
)
from repro.workloads.registry import at_scale

#: The registry-only scenario workloads this figure ships with.
DEFAULT_WORKLOADS = ("pareto-heavy", "bursty-diurnal")


def run(
    scale: str = "full",
    seed: int = 0,
    workloads=DEFAULT_WORKLOADS,
    n_seeds: int = 1,
) -> FigureResult:
    result = FigureResult(
        figure_id="Figure S (scenarios)",
        title="Hawk normalized to Sparrow on registry scenario workloads",
        headers=(
            "workload",
            "nodes",
            "util(sparrow)",
            "short p50",
            "short p90",
            "long p50",
            "long p90",
            "frac short improved",
        ),
    )
    # One executor stream across every scenario: a straggler in one
    # workload's point no longer gates the next workload's runs.
    specs = [at_scale(name, scale) for name in workloads]
    jobs = []
    for workload in specs:
        n = high_load_size(workload.trace(seed))
        hawk = RunSpec.for_workload(workload, "hawk", n, seed)
        sparrow = RunSpec.for_workload(workload, "sparrow", n, seed)
        jobs.append(SweepJob(workload, (n,), hawk, sparrow))
    for workload, points in zip(specs, multi_sweep(jobs, n_seeds=n_seeds)):
        for point in points:
            frac_s, _ = extra_metrics(point, JobClass.SHORT)
            result.add_row(
                workload.name,
                point.n_workers,
                *point.cells(*POINT_METRICS),
                frac_s,
            )
    result.add_note(
        "workloads constructed purely through the workload registry "
        "(repro/workloads/scenarios.py registers them; nothing in the "
        "experiment layer names them)"
    )
    result.add_note("ratios < 1 favor Hawk, as in Figures 5-6")
    result.add_replica_note(n_seeds)
    return result
