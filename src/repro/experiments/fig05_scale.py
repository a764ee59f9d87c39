"""Figure 5 at cluster scale: Hawk vs Sparrow on 10k and 100k workers.

The paper's Google sweep (Figure 5) tops out at cluster sizes in the low
thousands because that is where the 1200-job synthetic trace's offered
load lives.  These drivers push the same comparison to larger clusters
by densifying the arrival process (same generator, shorter
inter-arrivals).  At 10k workers the 3,000-job trace keeps the cluster
busy: queues form, and Hawk's short-job benefit shows.  The 100k point
divides the gaps by another 10 but keeps the same 3,000 jobs and 78,494
tasks, fewer tasks than workers: Sparrow's median utilization is about
0.007, no queue forms, and Hawk and Sparrow come out nearly equal.
Until its job count grows with the cluster, it measures the simulator
at 100k workers, not Hawk's benefit at high load.  Each point runs
through the standard sweep pipeline (executor batch, two-tier cache,
seed replication).  The 10k point exists because the fast-path
simulation core made that cluster size practical to regenerate; the
100k point because a failing steal round costs the same at any cluster
size (buffered victim draws checked against the cluster's steal-flag
bitmap, see ``repro.schedulers.stealing``); ``python -m repro.bench``
tracks the underlying events/sec budget for both.
"""

from __future__ import annotations

from repro.cluster.job import JobClass
from repro.experiments.config import RunSpec
from repro.experiments.report import FigureResult
from repro.experiments.sweeps import POINT_METRICS, extra_metrics, sweep
from repro.workloads.registry import WorkloadSpec

#: The headline cluster size (the paper's sweeps stop near 5k).
SCALE_N_WORKERS = 10_000

#: The largest point: one hundred thousand single-slot servers.
SCALE_100K_N_WORKERS = 100_000


def _run_scale_point(
    workload: WorkloadSpec,
    figure_id: str,
    title: str,
    seed: int,
    sizes: tuple[int, ...],
    n_seeds: int,
) -> FigureResult:
    trace = workload.trace(seed)
    hawk = RunSpec.for_workload(workload, "hawk", seed=seed)
    sparrow = RunSpec.for_workload(workload, "sparrow", seed=seed)
    points = sweep(workload, sizes, hawk, sparrow, n_seeds=n_seeds)

    result = FigureResult(
        figure_id=figure_id,
        title=title,
        headers=(
            "nodes",
            "offered load",
            "util(sparrow)",
            "short p50",
            "short p90",
            "long p50",
            "long p90",
            "frac short improved",
            "avg ratio short",
        ),
    )
    offered = trace.nodes_for_full_utilization()
    for point in points:
        frac_s, avg_s = extra_metrics(point, JobClass.SHORT)
        result.add_row(
            point.n_workers,
            offered / point.n_workers,
            *point.cells(*POINT_METRICS),
            frac_s,
            avg_s,
        )
    result.add_note(
        f"dense Google-like trace ({len(trace)} jobs, "
        f"{trace.total_tasks} tasks); ratios < 1 favor Hawk"
    )
    result.add_replica_note(n_seeds)
    return result


def run(
    seed: int = 0,
    sizes: tuple[int, ...] = (SCALE_N_WORKERS,),
    n_seeds: int = 1,
) -> FigureResult:
    return _run_scale_point(
        WorkloadSpec("google-scale10k"),
        "Figure 5 (scale)",
        "Hawk normalized to Sparrow at 10k workers (dense Google trace)",
        seed,
        sizes,
        n_seeds,
    )


def run_100k(
    seed: int = 0,
    sizes: tuple[int, ...] = (SCALE_100K_N_WORKERS,),
    n_seeds: int = 1,
) -> FigureResult:
    return _run_scale_point(
        WorkloadSpec("google-scale100k"),
        "Figure 5 (100k scale)",
        "Hawk normalized to Sparrow at 100k workers (dense Google trace)",
        seed,
        sizes,
        n_seeds,
    )
