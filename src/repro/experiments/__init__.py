"""Experiment drivers: one module per table/figure of the paper.

Every driver exposes a ``run(...)`` function returning a
:class:`repro.experiments.report.FigureResult` whose ``render()`` prints
the same rows/series the paper reports.  The benchmark harness under
``benchmarks/`` calls these drivers; they are also directly usable::

    from repro.experiments import fig05_google
    print(fig05_google.run().render())
"""

from typing import TYPE_CHECKING

from repro import _lazy_getattr
from repro.experiments.config import (
    GOOGLE_UTILIZATION_TARGETS,
    RunSpec,
    build_engine,
    execute,
    sweep_sizes,
)
from repro.workloads.registry import WorkloadSpec

if TYPE_CHECKING:  # mypy reads the lazy names' real types
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

# The executor, its cache, the sweeps and the report load on first use: a
# single run (``import repro.experiments.config``) never needs them.
_LAZY = {
    "DiskCache": "repro.experiments.parallel",
    "SweepExecutor": "repro.experiments.parallel",
    "cache_key": "repro.experiments.parallel",
    "get_executor": "repro.experiments.parallel",
    "replica_pairs": "repro.experiments.parallel",
    "set_executor": "repro.experiments.parallel",
    "FigureResult": "repro.experiments.report",
    "ascii_cdf": "repro.experiments.report",
    "ascii_table": "repro.experiments.report",
    "ResultIndex": "repro.experiments.result_index",
    "ReplicatedPoint": "repro.experiments.sweeps",
    "SweepJob": "repro.experiments.sweeps",
    "SweepPoint": "repro.experiments.sweeps",
    "multi_sweep": "repro.experiments.sweeps",
    "sweep": "repro.experiments.sweeps",
}
__getattr__ = _lazy_getattr(globals(), _LAZY)

__all__ = [
    "GOOGLE_UTILIZATION_TARGETS",
    "RunSpec",
    "WorkloadSpec",
    "build_engine",
    "execute",
    "sweep_sizes",
    *_LAZY,
]
