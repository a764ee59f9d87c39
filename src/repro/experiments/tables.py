"""Tables 1 and 2: workload heterogeneity statistics."""

from __future__ import annotations

from repro.experiments.report import FigureResult
from repro.metrics.stats import cell
from repro.workloads.analysis import workload_summary
from repro.workloads.kmeans import ALL_KMEANS_WORKLOADS
from repro.workloads.registry import at_scale
from repro.workloads.replication import replica_seeds

#: The paper's four workloads (Tables 1-2, Figure 4), by registered name.
PAPER_WORKLOADS = ("google",) + tuple(spec.name for spec in ALL_KMEANS_WORKLOADS)

#: Paper values for (long-job fraction, task-seconds share) per workload.
PAPER_TABLE1 = {
    "google-like": (0.1000, 0.8365),
    "cloudera-c": (0.0502, 0.9279),
    "facebook-2010": (0.0201, 0.9979),
    "yahoo-2011": (0.0941, 0.9831),
}

#: Paper values for Table 2: (long fraction, total jobs in original trace).
PAPER_TABLE2 = {
    "google-like": (0.1000, 506460),
    "cloudera-c": (0.0502, 21030),
    "facebook-2010": (0.0201, 1169184),
    "yahoo-2011": (0.0941, 24262),
}


def _summaries(scale: str, seed: int, n_seeds: int = 1):
    """Per workload: one :func:`workload_summary` per replica seed.

    The "% ours" cells are :func:`~repro.metrics.stats.cell` values
    whose null is the paper's number: with several trace draws the CI
    band carries the one-sample t p-value against it, and a low p flags
    a calibration drift of the generator, not noise.
    """
    seeds = replica_seeds(seed, n_seeds)
    for workload in (at_scale(name, scale) for name in PAPER_WORKLOADS):
        yield [
            workload_summary(workload.trace(s), workload.cutoff)
            for s in seeds
        ]


def run_table1(scale: str = "full", seed: int = 0, n_seeds: int = 1) -> FigureResult:
    """Table 1: long jobs are few but take most task-seconds."""
    result = FigureResult(
        figure_id="Table 1",
        title="Long jobs: fraction of jobs vs fraction of task-seconds",
        headers=(
            "workload",
            "% long (paper)",
            "% long (ours)",
            "% task-sec (paper)",
            "% task-sec (ours)",
        ),
    )
    for summaries in _summaries(scale, seed, n_seeds):
        paper_long, paper_ts = PAPER_TABLE1[summaries[0].name]
        result.add_row(
            summaries[0].name,
            100.0 * paper_long,
            cell([100.0 * s.long_fraction for s in summaries], 100.0 * paper_long),
            100.0 * paper_ts,
            cell([100.0 * s.task_seconds_share for s in summaries], 100.0 * paper_ts),
        )
    result.add_note(
        "generated workloads are synthetic stand-ins calibrated to the "
        "paper's statistics (see DESIGN.md)"
    )
    result.add_replica_note(
        n_seeds,
        cells="cells",
        test="t-test vs paper value",
        sample="measured over {} independent trace draws",
    )
    return result


def run_table2(scale: str = "full", seed: int = 0, n_seeds: int = 1) -> FigureResult:
    """Table 2: number of long jobs and total job counts."""
    result = FigureResult(
        figure_id="Table 2",
        title="Long-job fraction and trace sizes",
        headers=(
            "workload",
            "% long (paper)",
            "% long (ours)",
            "jobs (paper)",
            "jobs (ours)",
        ),
    )
    for summaries in _summaries(scale, seed, n_seeds):
        paper_long, paper_jobs = PAPER_TABLE2[summaries[0].name]
        result.add_row(
            summaries[0].name,
            100.0 * paper_long,
            cell([100.0 * s.long_fraction for s in summaries], 100.0 * paper_long),
            paper_jobs,
            summaries[0].total_jobs,  # fixed by the generator's job count
        )
    result.add_note(
        "our traces are downscaled in job count; per-job statistics, not "
        "totals, drive the scheduling dynamics"
    )
    result.add_replica_note(
        n_seeds,
        cells="% cells",
        test="t-test vs paper value",
        sample="measured over {} independent trace draws",
    )
    return result
