"""repro — a reproduction of "Hawk: Hybrid Datacenter Scheduling" (ATC '15).

Public API quick reference
--------------------------
Workloads:   :func:`repro.google_like_trace`, :func:`repro.kmeans_trace`,
             :func:`repro.motivation_trace`
Schedulers:  :class:`repro.HawkScheduler`, :class:`repro.SparrowScheduler`,
             :class:`repro.CentralizedScheduler`, :class:`repro.SplitScheduler`
Running:     :class:`repro.Cluster`, :class:`repro.ClusterEngine`,
             :class:`repro.EngineConfig`, :class:`repro.WorkStealing`
Metrics:     :func:`repro.compare_runs`, :func:`repro.percentile`

See ``examples/quickstart.py`` for an end-to-end walkthrough.
"""

import importlib
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, Any


def _lazy_getattr(
    namespace: dict[str, Any], table: Mapping[str, str]
) -> Callable[[str], Any]:
    """A PEP 562 module ``__getattr__`` importing ``table[name]`` on first use.

    Keeps modules a caller may never run (the metrics, the sweep
    executor, the trace generators) off a package's import path while
    every name of its ``__all__`` stays importable; a resolved name is
    kept in ``namespace``, so each one is looked up once.  Defined before
    this package imports its subpackages, which use it too.
    """

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(importlib.import_module(table[name]), name)
        return value

    return __getattr__


from repro.cluster import (
    Cluster,
    ClusterEngine,
    EngineConfig,
    JobClass,
    JobRecord,
    Partition,
    RunResult,
)
from repro.schedulers import (
    BatchSamplingScheduler,
    CentralizedScheduler,
    ExactEstimation,
    HawkScheduler,
    OmniscientScheduler,
    Param,
    SparrowScheduler,
    SplitScheduler,
    UniformMisestimation,
    WorkStealing,
    register_policy,
    registry,
)
from repro.workloads.spec import JobSpec, Trace

__version__ = "1.0.0"


if TYPE_CHECKING:  # mypy reads the lazy names' real types
    from repro.metrics import compare_runs, percentile
    from repro.workloads.google import GoogleTraceConfig, google_like_trace
    from repro.workloads.kmeans import kmeans_trace
    from repro.workloads.motivation import MotivationConfig, motivation_trace

_LAZY = {
    "compare_runs": "repro.metrics",
    "percentile": "repro.metrics",
    "GoogleTraceConfig": "repro.workloads.google",
    "google_like_trace": "repro.workloads.google",
    "kmeans_trace": "repro.workloads.kmeans",
    "MotivationConfig": "repro.workloads.motivation",
    "motivation_trace": "repro.workloads.motivation",
}
__getattr__ = _lazy_getattr(globals(), _LAZY)

__all__ = [
    "BatchSamplingScheduler",
    "CentralizedScheduler",
    "Cluster",
    "ClusterEngine",
    "EngineConfig",
    "ExactEstimation",
    "HawkScheduler",
    "JobClass",
    "JobRecord",
    "JobSpec",
    "OmniscientScheduler",
    "Param",
    "Partition",
    "RunResult",
    "SparrowScheduler",
    "SplitScheduler",
    "Trace",
    "UniformMisestimation",
    "WorkStealing",
    "register_policy",
    "registry",
    "__version__",
    *_LAZY,
]
