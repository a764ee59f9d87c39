"""Figure 14: sensitivity to task-runtime mis-estimation.

For each job the correct estimate is multiplied by a random value chosen
uniformly within a range (0.1-1.9 down to 0.7-1.3).  Runtimes of the jobs
*classified as long when no mis-estimations are present* are reported
normalized to Sparrow, aggregated over several runs (ten in the paper).
Short jobs see only minute variations (their scheduling never uses
estimates) — the short columns verify that.

The repetition axis rides on the ordinary seed-replication machinery:
one Hawk-vs-Sparrow :class:`~repro.experiments.sweeps.SweepJob` per
range, whose Hawk spec carries a :class:`UniformMisestimation`
estimator, and one :func:`~repro.experiments.sweeps.multi_sweep` stream
fans every job out over matched seed replicas — the engine specializes
the estimator to each replica's run seed (its ``seeded`` hook), so
every replica is an independent draw of both the scheduling randomness
*and* the mis-estimation noise.  The Sparrow baseline is shared by every
range (it executes once per replica), and each range's ratios are
paired within replicas before aggregation.
"""

from __future__ import annotations

from repro.experiments.config import RunSpec, high_load_size
from repro.experiments.report import FigureResult
from repro.experiments.sweeps import LONG_FIRST, SweepJob, multi_sweep
from repro.schedulers.estimator import UniformMisestimation
from repro.workloads.registry import at_scale

#: The paper's mis-estimation magnitude ranges.
PAPER_RANGES = (
    (0.1, 1.9),
    (0.2, 1.8),
    (0.3, 1.7),
    (0.4, 1.6),
    (0.5, 1.5),
    (0.6, 1.4),
    (0.7, 1.3),
)

#: Seed replicas aggregated per range (the paper uses 10 runs).
DEFAULT_N_SEEDS = 5


def run(
    scale: str = "full",
    seed: int = 0,
    ranges=PAPER_RANGES,
    n_seeds: int = DEFAULT_N_SEEDS,
) -> FigureResult:
    workload = at_scale("google", scale)
    trace = workload.trace(seed)
    n = high_load_size(trace)

    def hawk(low: float, high: float) -> RunSpec:
        return RunSpec.for_workload(
            workload,
            "hawk",
            n,
            seed,
            estimate=UniformMisestimation(low, high, seed=seed),
            # The estimator's base seed is part of its identity: replica
            # families with different bases overlap in spec.seed, and the
            # tag is what keeps their cache entries distinct.
            estimate_tag=f"mis-{low:g}-{high:g}-s{seed}",
        )

    sparrow = RunSpec.for_workload(workload, "sparrow", n, seed)
    # The trace is held fixed across replicas on purpose (a plain trace,
    # no factory): the axis under study is estimator noise, not workload
    # noise.
    jobs = [SweepJob(trace, (n,), hawk(low, high), sparrow) for low, high in ranges]

    result = FigureResult(
        figure_id="Figure 14",
        title=(
            f"Mis-estimation sensitivity, Hawk/Sparrow, {n} nodes, "
            f"{n_seeds} seed replicas"
        ),
        headers=(
            "magnitude",
            "long p50",
            "long p90",
            "short p50",
            "short p90",
        ),
    )
    # true_class is based on the correct estimate, so the class cells
    # cover the jobs "classified as long when no mis-estimations are
    # present" — exactly the paper's reporting population.
    for (low, high), (point,) in zip(ranges, multi_sweep(jobs, n_seeds=n_seeds)):
        result.add_row(f"{low:g}-{high:g}", *point.cells(*LONG_FIRST))
    result.add_note(
        "Hawk should be robust: ratios stay close to the exact-estimation "
        "values across all magnitudes (paper Section 4.8)"
    )
    result.add_replica_note(
        n_seeds,
        cells="cells",
        sample=(
            "aggregated over {} matched seed replicas with independent "
            "mis-estimation draws"
        ),
    )
    return result
