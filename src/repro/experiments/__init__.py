"""Experiment drivers: one module per table/figure of the paper.

Every driver exposes a ``run(...)`` function returning a
:class:`repro.experiments.report.FigureResult` whose ``render()`` prints
the same rows/series the paper reports.  The benchmark harness under
``benchmarks/`` calls these drivers; they are also directly usable::

    from repro.experiments import fig05_google
    print(fig05_google.run().render())
"""

from repro.experiments.config import (
    GOOGLE_UTILIZATION_TARGETS,
    RunSpec,
    build_engine,
    execute,
    sweep_sizes,
)
from repro.experiments.parallel import (
    DiskCache,
    SweepExecutor,
    cache_key,
    get_executor,
    replica_pairs,
    set_executor,
)
from repro.experiments.report import FigureResult, ascii_cdf, ascii_table
from repro.experiments.result_index import ResultIndex
from repro.experiments.sweeps import (
    ReplicatedPoint,
    SweepJob,
    SweepPoint,
    multi_sweep,
    sweep,
)
from repro.workloads.registry import WorkloadSpec

__all__ = [
    "DiskCache",
    "FigureResult",
    "GOOGLE_UTILIZATION_TARGETS",
    "ReplicatedPoint",
    "ResultIndex",
    "RunSpec",
    "SweepExecutor",
    "SweepJob",
    "SweepPoint",
    "WorkloadSpec",
    "ascii_cdf",
    "ascii_table",
    "build_engine",
    "cache_key",
    "execute",
    "get_executor",
    "multi_sweep",
    "replica_pairs",
    "set_executor",
    "sweep",
    "sweep_sizes",
]
