"""Workload generators, the workload registry, trace analysis and I/O.

Every built-in workload registers itself with
:mod:`repro.workloads.registry` when its generator module is imported,
and the registry imports them all on its first lookup, so
``WorkloadSpec(name)`` works for the whole zoo without importing a
generator first.  This package loads the generators, the analysis and
the trace I/O only when one of their names is first used: a process
that only handles traces (the service) never loads them.
"""

from typing import TYPE_CHECKING

from repro import _lazy_getattr
from repro.workloads.registry import (
    WorkloadEntry,
    WorkloadSpec,
    at_scale,
    quick_spec,
    register_workload,
)
from repro.workloads.spec import JobSpec, Trace

if TYPE_CHECKING:  # mypy reads the lazy names' real types
    from repro.workloads.analysis import (
        cdf_points,
        long_job_fraction,
        mean_duration_ratio,
        task_seconds_share,
        tasks_share,
        workload_summary,
    )
    from repro.workloads.arrivals import poisson_arrival_times
    from repro.workloads.google import (
        GOOGLE_CUTOFF_S,
        GoogleTraceConfig,
        google_like_trace,
    )
    from repro.workloads.kmeans import (
        CLOUDERA_C,
        FACEBOOK_2010,
        YAHOO_2011,
        KMeansWorkloadSpec,
        kmeans_trace,
    )
    from repro.workloads.motivation import MotivationConfig, motivation_trace
    from repro.workloads.replication import (
        TraceFactory,
        replica_seeds,
        replicate_trace,
    )
    from repro.workloads.scaling import scale_trace_for_prototype
    from repro.workloads.trace_io import read_trace, write_trace

_LAZY = {
    "cdf_points": "repro.workloads.analysis",
    "long_job_fraction": "repro.workloads.analysis",
    "mean_duration_ratio": "repro.workloads.analysis",
    "task_seconds_share": "repro.workloads.analysis",
    "tasks_share": "repro.workloads.analysis",
    "workload_summary": "repro.workloads.analysis",
    "poisson_arrival_times": "repro.workloads.arrivals",
    "GOOGLE_CUTOFF_S": "repro.workloads.google",
    "GoogleTraceConfig": "repro.workloads.google",
    "google_like_trace": "repro.workloads.google",
    "CLOUDERA_C": "repro.workloads.kmeans",
    "FACEBOOK_2010": "repro.workloads.kmeans",
    "YAHOO_2011": "repro.workloads.kmeans",
    "KMeansWorkloadSpec": "repro.workloads.kmeans",
    "kmeans_trace": "repro.workloads.kmeans",
    "MotivationConfig": "repro.workloads.motivation",
    "motivation_trace": "repro.workloads.motivation",
    "TraceFactory": "repro.workloads.replication",
    "replica_seeds": "repro.workloads.replication",
    "replicate_trace": "repro.workloads.replication",
    "scale_trace_for_prototype": "repro.workloads.scaling",
    "read_trace": "repro.workloads.trace_io",
    "write_trace": "repro.workloads.trace_io",
}
__getattr__ = _lazy_getattr(globals(), _LAZY)

__all__ = [
    "JobSpec",
    "Trace",
    "WorkloadEntry",
    "WorkloadSpec",
    "at_scale",
    "quick_spec",
    "register_workload",
    *_LAZY,
]
