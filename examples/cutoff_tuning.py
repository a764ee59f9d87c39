#!/usr/bin/env python3
"""Cutoff tuning: where should a cluster draw the long/short line?

Replays the Figures 12-13 experiment as an operator workflow: sweep the
classification cutoff on your own workload and inspect how both job
classes respond, relative to the Sparrow baseline.  The paper's finding —
Hawk's benefits hold across a wide cutoff range — means the operator does
not need the threshold to be precise.

Run:  python examples/cutoff_tuning.py
"""

from repro import JobClass, google_like_trace
from repro.experiments import RunSpec, get_executor
from repro.metrics.comparison import normalized_percentile
from repro.workloads.google import (
    GOOGLE_SHORT_PARTITION_FRACTION,
    GoogleTraceConfig,
)

CUTOFFS = (600.0, 900.0, 1129.0, 1400.0, 1800.0, 2400.0)


def main() -> None:
    trace = google_like_trace(GoogleTraceConfig(n_jobs=350), seed=4)
    n_workers = int(round(trace.nodes_for_full_utilization()))
    print(f"{len(trace)} jobs on {n_workers} workers (high load)\n")
    header = (
        f"{'cutoff':>8s} {'%long':>6s} {'short p50':>10s} {'short p90':>10s} "
        f"{'long p50':>9s} {'long p90':>9s}"
    )
    print(header)
    run_one = get_executor().run_one
    for cutoff in CUTOFFS:
        hawk = run_one(
            RunSpec(
                scheduler="hawk",
                n_workers=n_workers,
                cutoff=cutoff,
                short_partition_fraction=GOOGLE_SHORT_PARTITION_FRACTION,
            ),
            trace,
        )
        sparrow = run_one(
            RunSpec(scheduler="sparrow", n_workers=n_workers, cutoff=cutoff),
            trace,
        )
        pct_long = 100 * sum(1 for j in trace if j.is_long(cutoff)) / len(trace)
        ratios = [
            normalized_percentile(hawk, sparrow, cls, p)
            for cls in (JobClass.SHORT, JobClass.LONG)
            for p in (50, 90)
        ]
        print(
            f"{cutoff:8.0f} {pct_long:6.1f} {ratios[0]:10.2f} "
            f"{ratios[1]:10.2f} {ratios[2]:9.2f} {ratios[3]:9.2f}"
        )
    print(
        "\nratios are Hawk normalized to Sparrow (lower is better); the "
        "benefit for short jobs should persist across the whole range"
    )


if __name__ == "__main__":
    main()
