"""Figure 1: short jobs fare poorly under Sparrow in a loaded cluster.

Reproduces Section 2.3: the motivation workload run under Sparrow, with
the CDF of short-job runtimes and the utilization statistics the paper
quotes (median 86%, max 97.8%, "an omniscient scheduler would yield job
runtimes of 100s for the majority of the short jobs").
"""

from __future__ import annotations

from repro.cluster.job import JobClass
from repro.experiments.config import RunSpec
from repro.experiments.parallel import get_executor
from repro.experiments.report import FigureResult, ascii_cdf
from repro.metrics.percentiles import percentile
from repro.workloads.motivation import MotivationConfig
from repro.workloads.registry import WorkloadSpec

#: Default scale: 1/10th of the paper's scenario (100 jobs, 1500 servers)
#: keeps the bench quick; scale=1.0 reproduces the full 1000x15000 setup.
DEFAULT_SCALE = 0.1


def run(scale: float = DEFAULT_SCALE, seed: int = 0) -> FigureResult:
    # The trace comes through the registry; the config is still needed
    # locally for the scenario's recommended server count.
    config = MotivationConfig().scaled(scale)
    workload = WorkloadSpec("motivation", {"scale": scale})
    spec = RunSpec.for_workload(workload, "sparrow", config.n_servers, seed)
    res = get_executor().run_one(spec, workload.trace(seed))
    short_runtimes = res.runtimes(JobClass.SHORT)

    result = FigureResult(
        figure_id="Figure 1",
        title="CDF of short-job runtime under Sparrow, loaded cluster",
        headers=("percentile", "short-job runtime (s)", "x task duration"),
    )
    for p in (10, 25, 50, 75, 90, 99):
        runtime = percentile(short_runtimes, p)
        result.add_row(p, runtime, runtime / config.short_duration)
    result.add_note(
        f"cluster utilization: median {100 * res.median_utilization():.1f}% "
        f"(paper: 86%), max {100 * res.max_utilization():.1f}% (paper: 97.8%)"
    )
    result.add_note(
        f"an ideal scheduler would finish most short jobs in "
        f"{config.short_duration:.0f}s; large multiples indicate "
        "head-of-line blocking behind long tasks"
    )
    result.add_note("\n" + ascii_cdf(short_runtimes, label="short-job runtime (s)"))
    return result
