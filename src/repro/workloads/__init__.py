"""Workload generators, the workload registry, trace analysis and I/O.

Importing this package registers every built-in workload with
:mod:`repro.workloads.registry` (each generator module self-registers at
import time), so ``WorkloadSpec(name)`` works for the whole zoo after a
plain ``import repro.workloads``.
"""

from repro.workloads.analysis import (
    cdf_points,
    long_job_fraction,
    mean_duration_ratio,
    task_seconds_share,
    tasks_share,
    workload_summary,
)
from repro.workloads.arrivals import poisson_arrival_times
from repro.workloads.google import GOOGLE_CUTOFF_S, GoogleTraceConfig, google_like_trace
from repro.workloads.kmeans import (
    CLOUDERA_C,
    FACEBOOK_2010,
    YAHOO_2011,
    KMeansWorkloadSpec,
    kmeans_trace,
)
from repro.workloads.motivation import MotivationConfig, motivation_trace
from repro.workloads.registry import (
    WorkloadEntry,
    WorkloadSpec,
    at_scale,
    quick_spec,
    register_workload,
)
from repro.workloads.replication import (
    TraceFactory,
    replica_seeds,
    replicate_trace,
)
from repro.workloads.scaling import scale_trace_for_prototype

# Imported for the registration side effect: the scenario workloads are
# constructed through WorkloadSpec("pareto-heavy"/"bursty-diurnal"), not
# by calling their (params, seed) builders directly.
import repro.workloads.scenarios  # noqa: F401  isort: skip
from repro.workloads.spec import JobSpec, Trace
from repro.workloads.trace_io import read_trace, write_trace

__all__ = [
    "CLOUDERA_C",
    "FACEBOOK_2010",
    "GOOGLE_CUTOFF_S",
    "GoogleTraceConfig",
    "JobSpec",
    "KMeansWorkloadSpec",
    "MotivationConfig",
    "Trace",
    "TraceFactory",
    "WorkloadEntry",
    "WorkloadSpec",
    "YAHOO_2011",
    "at_scale",
    "cdf_points",
    "google_like_trace",
    "kmeans_trace",
    "long_job_fraction",
    "mean_duration_ratio",
    "motivation_trace",
    "poisson_arrival_times",
    "quick_spec",
    "read_trace",
    "register_workload",
    "replica_seeds",
    "replicate_trace",
    "scale_trace_for_prototype",
    "task_seconds_share",
    "tasks_share",
    "workload_summary",
    "write_trace",
]
