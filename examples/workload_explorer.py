#!/usr/bin/env python3
"""Workload explorer: inspect and export the synthetic traces.

Generates the four workloads (Google-like, Cloudera-C, Facebook, Yahoo),
prints their Table 1 statistics and Figure 4 style CDF percentiles, and
writes each to disk in the simulator's trace format so external tools (or
a later run) can replay the exact same workload.

Run:  python examples/workload_explorer.py [output_dir]
"""

import sys
from pathlib import Path

from repro.experiments.tables import PAPER_WORKLOADS
from repro.metrics import percentile
from repro.workloads import at_scale, read_trace, workload_summary, write_trace


def describe(trace, cutoff: float) -> None:
    summary = workload_summary(trace, cutoff)
    print(f"== {summary.name} ==")
    print(
        f"  jobs={summary.total_jobs}  long={100 * summary.long_fraction:.2f}%  "
        f"task-seconds(long)={100 * summary.task_seconds_share:.2f}%  "
        f"duration ratio={summary.duration_ratio:.2f}x"
    )
    for label, jobs in (
        ("long ", trace.long_jobs(cutoff)),
        ("short", trace.short_jobs(cutoff)),
    ):
        if not jobs:
            continue
        durations = [j.mean_task_duration for j in jobs]
        tasks = [float(j.num_tasks) for j in jobs]
        print(
            f"  {label}: duration p50={percentile(durations, 50):8.0f}s "
            f"p90={percentile(durations, 90):8.0f}s | tasks "
            f"p50={percentile(tasks, 50):6.0f} p90={percentile(tasks, 90):6.0f}"
        )


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("traces-out")
    out_dir.mkdir(exist_ok=True)

    for workload in (at_scale(name, "quick") for name in PAPER_WORKLOADS):
        trace = workload.trace(0)
        describe(trace, workload.cutoff)
        path = out_dir / f"{trace.name}.tsv.gz"
        write_trace(trace, path)
        reread = read_trace(path)
        assert len(reread) == len(trace), "round-trip failed"
        print(f"  wrote {path} ({len(trace)} jobs)\n")


if __name__ == "__main__":
    main()
