#!/usr/bin/env python3
"""Capacity planning: how small a cluster can serve a workload's SLOs?

A downstream use of the simulator beyond the paper's figures: given a
workload and a latency SLO for short jobs (p90 under N seconds), find the
smallest cluster for which each scheduler meets it.  This is the question
an operator choosing between Sparrow and Hawk actually asks — Hawk's
better short-job behaviour at high utilization translates into fewer
machines for the same SLO.

Run:  python examples/capacity_planning.py
"""

from repro import JobClass, google_like_trace, percentile
from repro.experiments import RunSpec, get_executor
from repro.workloads import GOOGLE_CUTOFF_S
from repro.workloads.google import GoogleTraceConfig

#: Short jobs must finish within this many seconds at the 90th percentile.
SHORT_P90_SLO = 2500.0


def p90_short(scheduler: str, n_workers: int, trace) -> float:
    spec = RunSpec(
        scheduler=scheduler,
        n_workers=n_workers,
        cutoff=GOOGLE_CUTOFF_S,
    )
    result = get_executor().run_one(spec, trace)
    return percentile(result.runtimes(JobClass.SHORT), 90)


def smallest_cluster_meeting_slo(scheduler: str, trace, sizes) -> int | None:
    for n in sizes:
        if p90_short(scheduler, n, trace) <= SHORT_P90_SLO:
            return n
    return None


def main() -> None:
    trace = google_like_trace(GoogleTraceConfig(n_jobs=400), seed=2)
    full = trace.nodes_for_full_utilization()
    sizes = [int(full * f) for f in (0.8, 0.9, 1.0, 1.15, 1.3, 1.5, 1.8, 2.2)]
    print(f"workload: {len(trace)} jobs; ~{full:.0f} nodes saturate it")
    print(f"SLO: short-job p90 <= {SHORT_P90_SLO:.0f}s\n")
    print(f"{'nodes':>7s} {'sparrow p90':>12s} {'hawk p90':>12s}")
    for n in sizes:
        s = p90_short("sparrow", n, trace)
        h = p90_short("hawk", n, trace)
        marks = ("ok" if s <= SHORT_P90_SLO else "  ",
                 "ok" if h <= SHORT_P90_SLO else "  ")
        print(f"{n:7d} {s:10.0f} {marks[0]} {h:10.0f} {marks[1]}")
    for scheduler in ("sparrow", "hawk"):
        n = smallest_cluster_meeting_slo(scheduler, trace, sizes)
        verdict = f"{n} nodes" if n else "not met in the tested range"
        print(f"\nsmallest cluster meeting the SLO with {scheduler}: {verdict}")


if __name__ == "__main__":
    main()
