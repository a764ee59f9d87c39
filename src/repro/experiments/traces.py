"""Canonical experiment workloads, named as :class:`WorkloadSpec` values.

All figure drivers obtain their input workloads here so every experiment
agrees on the trace identity.  Since the workload registry
(:mod:`repro.workloads.registry`) became the construction path, this
module is nothing but registry lookups: each helper returns the
``WorkloadSpec`` naming a registered workload at the canonical full or
quick scale, and trace materialization (with its per-process cache) is
``spec.trace(seed)`` — the module-level trace cache that used to live
here is gone.  A spec is also a ``seed -> Trace`` factory (``spec(seed)``
is ``spec.trace(seed)``), so it serves directly as a sweep's
``trace_factory``.
"""

from __future__ import annotations

from repro.workloads import CLOUDERA_C, FACEBOOK_2010, GOOGLE_CUTOFF_S, YAHOO_2011
from repro.workloads.google import GOOGLE_SHORT_PARTITION_FRACTION
from repro.workloads.kmeans import KMeansWorkloadSpec
from repro.workloads.registry import WorkloadSpec

#: Jobs per generated trace at the two scales.  "full" is the default used
#: by the benchmark harness; "quick" keeps unit/integration tests fast.
#: (The full-scale values are the registered defaults; quick overrides
#: match each entry's registered ``quick_params``.)
_GOOGLE_JOBS = {"full": 1200, "quick": 260}
_KMEANS_JOBS = {"full": 900, "quick": 240}


def google_workload(scale: str = "full") -> WorkloadSpec:
    """The synthetic Google-like workload at the canonical scale."""
    return WorkloadSpec("google", {"n_jobs": _GOOGLE_JOBS[scale]})


def kmeans_workload(spec: KMeansWorkloadSpec, scale: str = "full") -> WorkloadSpec:
    """A Cloudera/Facebook/Yahoo workload at the canonical scale."""
    return WorkloadSpec(spec.name, {"n_jobs": _KMEANS_JOBS[scale]})


def google_scale_workload() -> WorkloadSpec:
    """The densified Google workload for the 10k-worker scale point."""
    return WorkloadSpec("google-scale10k")


def google_scale100k_workload() -> WorkloadSpec:
    """The densified Google workload for the 100k-worker scale point."""
    return WorkloadSpec("google-scale100k")


def google_cutoff() -> float:
    return GOOGLE_CUTOFF_S


def google_short_fraction() -> float:
    return GOOGLE_SHORT_PARTITION_FRACTION


ALL_WORKLOAD_SPECS = (CLOUDERA_C, FACEBOOK_2010, YAHOO_2011)
