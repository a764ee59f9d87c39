"""Run specifications shared by every experiment driver.

Construction is registry-driven: ``RunSpec`` (a registered policy plus
its frozen, schema-validated ``params``) and :func:`build_engine` (a
pure registry lookup) live in :mod:`repro.schedulers.registry`, which
every host shares, and the drivers import them from here.  Adding a
scheduler therefore never touches this module — register it and every
sweep, figure driver and cache key accepts it.  Drivers build their
specs with :meth:`RunSpec.for_workload`, which reads the cutoff and
partition sizing off the workload registry entry, so no driver
restates them.
"""

from __future__ import annotations

from repro.cluster.records import RunResult
from repro.schedulers.registry import RunSpec, build_engine
from repro.workloads.spec import Trace

#: Offered-load points for cluster-size sweeps, expressed as offered
#: task-seconds over cluster capacity.  They mirror the paper's 10k-50k
#: node sweep of the Google trace: overload -> high load -> mostly idle.
GOOGLE_UTILIZATION_TARGETS = (1.25, 1.0, 0.8, 0.65, 0.5, 0.35)

#: The load point used for the single-cluster-size experiments
#: (Figures 7, 12-15); corresponds to the paper's 15000-node setting.
HIGH_LOAD_TARGET = 1.0


def execute(spec: RunSpec, trace: Trace) -> RunResult:
    """Build and run one experiment configuration."""
    return build_engine(spec).run(trace)


def sweep_sizes(trace: Trace, utilization_targets=GOOGLE_UTILIZATION_TARGETS):
    """Cluster sizes whose offered load matches the given targets.

    The paper varies the number of nodes to vary utilization
    (Section 4.2); this helper inverts that: given offered-load targets it
    returns the cluster sizes achieving them for the trace at hand.
    """
    full = trace.nodes_for_full_utilization()
    return tuple(max(3, int(round(full / target))) for target in utilization_targets)


def high_load_size(trace: Trace, target: float = HIGH_LOAD_TARGET) -> int:
    """The single cluster size used by the fixed-size experiments."""
    return max(3, int(round(trace.nodes_for_full_utilization() / target)))
