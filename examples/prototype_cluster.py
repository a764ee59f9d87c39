#!/usr/bin/env python3
"""Run the threaded prototype cluster: real threads, real sleeps.

Mirrors the paper's Spark deployment (Section 3.8) in miniature: node
monitors are OS threads executing sleep tasks, task requests and steal
messages pay real latency, and the registry's scheduling policy runs
behind a mutex.  The same spec — policy, cluster shape and carried job
classification — also runs through the discrete-event simulator so you
can see how well the two agree: the Figures 16-17 experiment in example
form.

Run:  python examples/prototype_cluster.py   (takes a few seconds of wall time)
"""

from repro import JobClass, percentile
from repro.experiments.config import RunSpec, execute
from repro.experiments.fig16_17_prototype import _scheduled_runtimes
from repro.runtime import PrototypeCluster
from repro.workloads import GOOGLE_CUTOFF_S, google_like_trace
from repro.workloads.google import GoogleTraceConfig
from repro.workloads.scaling import scale_trace_for_prototype, with_interarrival

N_MONITORS = 50


def main() -> None:
    base = google_like_trace(GoogleTraceConfig(n_jobs=60), seed=7)
    scaled = scale_trace_for_prototype(
        base,
        cluster_size=N_MONITORS,
        cutoff=GOOGLE_CUTOFF_S,
        target_mean_task_runtime=0.05,
    )
    # Offered load ~ 1.0: inter-arrival = total work / (jobs x capacity).
    gap = scaled.trace.total_task_seconds / (len(scaled.trace) * N_MONITORS)
    trace = with_interarrival(scaled.trace, gap, seed=7)
    print(
        f"{len(trace)} jobs, {trace.total_tasks} sleep tasks, "
        f"{len(scaled.long_job_ids)} long jobs, horizon {trace.horizon:.1f}s"
    )

    for scheduler in ("sparrow", "hawk"):
        spec = RunSpec(
            scheduler=scheduler,
            n_workers=N_MONITORS,
            cutoff=scaled.cutoff,
            seed=7,
            estimate=scaled.carried_estimate,
            estimate_tag="carried-classes",
        )
        for system, result in (
            ("prototype", PrototypeCluster(spec, timeout=120.0).run(trace)),
            ("simulator", execute(spec, trace)),
        ):
            shorts = _scheduled_runtimes(result, JobClass.SHORT)
            longs = _scheduled_runtimes(result, JobClass.LONG)
            print(
                f"{system} {scheduler:8s}: short p50="
                f"{percentile(shorts, 50):.3f}s p90={percentile(shorts, 90):.3f}s"
                f"  long p50={percentile(longs, 50):.3f}s"
                f"  stolen={result.stealing.entries_stolen}"
            )


if __name__ == "__main__":
    main()
