"""Figure 4: workload-property CDFs.

The paper plots, per workload and per class, the CDF of the average task
duration per job (4a long, 4b short) and of the number of tasks per job
(4c long, 4d short).  We report the CDFs as percentile tables, one row
per workload/class.
"""

from __future__ import annotations

from repro.experiments.report import FigureResult
from repro.experiments.tables import PAPER_WORKLOADS
from repro.metrics.percentiles import percentile
from repro.workloads.registry import at_scale

_PERCENTILES = (10, 25, 50, 75, 90, 99)


def _traces(scale: str, seed: int):
    for workload in (at_scale(name, scale) for name in PAPER_WORKLOADS):
        yield workload.trace(seed), workload.cutoff


def run(scale: str = "full", seed: int = 0) -> FigureResult:
    result = FigureResult(
        figure_id="Figure 4",
        title="Workload CDF percentiles: task duration and tasks per job",
        headers=("workload", "class", "metric")
        + tuple(f"p{p}" for p in _PERCENTILES),
    )
    for trace, cutoff in _traces(scale, seed):
        for class_name, jobs in (
            ("long", trace.long_jobs(cutoff)),
            ("short", trace.short_jobs(cutoff)),
        ):
            if not jobs:
                continue
            durations = [j.mean_task_duration for j in jobs]
            tasks = [float(j.num_tasks) for j in jobs]
            result.add_row(
                trace.name,
                class_name,
                "task duration (s)",
                *(percentile(durations, p) for p in _PERCENTILES),
            )
            result.add_row(
                trace.name,
                class_name,
                "tasks per job",
                *(percentile(tasks, p) for p in _PERCENTILES),
            )
    result.add_note(
        "paper panels: 4a = long durations, 4b = short durations, "
        "4c = long task counts, 4d = short task counts"
    )
    return result
