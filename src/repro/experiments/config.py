"""Run specifications shared by every experiment driver.

Construction is registry-driven (:mod:`repro.schedulers.registry`):
``RunSpec`` v2 names a registered policy and carries a frozen,
schema-validated ``params`` mapping; :func:`build_engine` is a pure
registry lookup.  Adding a scheduler therefore never touches this
module — register it and every sweep, figure driver and cache key
accepts it.  Drivers build their specs with :meth:`RunSpec.for_workload`,
which reads the cutoff and partition sizing off the workload registry
entry, so no driver restates them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from typing import Callable

from repro.cluster import ClusterEngine
from repro.cluster.faults import FaultPlan
from repro.cluster.records import RunResult
from repro.core.errors import ConfigurationError
from repro.schedulers import registry
from repro.schedulers.registry import FrozenParams
from repro.workloads.registry import WorkloadSpec
from repro.workloads.replication import replica_seeds
from repro.workloads.spec import Trace

#: Offered-load points for cluster-size sweeps, expressed as offered
#: task-seconds over cluster capacity.  They mirror the paper's 10k-50k
#: node sweep of the Google trace: overload -> high load -> mostly idle.
GOOGLE_UTILIZATION_TARGETS = (1.25, 1.0, 0.8, 0.65, 0.5, 0.35)

#: The load point used for the single-cluster-size experiments
#: (Figures 7, 12-15); corresponds to the paper's 15000-node setting.
HIGH_LOAD_TARGET = 1.0


@dataclass(frozen=True, slots=True)
class RunSpec:
    """Everything needed to build one engine run (minus the trace).

    ``scheduler`` must name a registered policy; ``params`` holds that
    policy's knobs (e.g. ``probe_ratio``, ``steal_cap``, a scenario
    policy's ``batch_size``) and is validated against the registry
    schema at construction — unknown names, wrong types and
    out-of-range values all fail fast.  The stored mapping is frozen
    and canonically ordered, so equality, hashing and the run-cache key
    are independent of params-dict insertion order, and undeclared
    params are pinned at their schema defaults (two specs differing
    only in an omitted-vs-explicit default are the *same* spec).
    """

    scheduler: str
    n_workers: int
    cutoff: float
    short_partition_fraction: float = 0.17
    seed: int = 0
    params: Mapping = FrozenParams()
    estimate: Callable | None = field(default=None, compare=False)
    #: Opaque tag making otherwise-equal specs distinct in the run cache
    #: (required whenever ``estimate`` is set: callables have no stable
    #: content, so the tag is their cache-visible identity).
    estimate_tag: str = "exact"
    #: Injected failures for this run (:mod:`repro.cluster.faults`).  An
    #: empty plan normalizes to ``None``, and ``None`` is skipped by the
    #: cache-key digest, so fault-free specs hash, compare and cache
    #: exactly as they did before faults existed.
    faults: FaultPlan | None = None
    #: Canonical string of every compared field, derived once here and
    #: read by the run-cache key (:func:`repro.experiments.parallel.cache_key`).
    #: ``estimate`` is excluded (callables have no stable content);
    #: ``estimate_tag`` is its stand-in, as in spec equality.  ``params``
    #: reprs canonically (ordered, defaults filled), so the digest is
    #: independent of dict order and of omitted-vs-explicit defaults.
    #: ``faults`` joins only when a plan is present, so every fault-free
    #: key is byte-identical to its pre-fault form.
    digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Raises ConfigurationError for unknown policies/params and
        # canonicalizes the mapping (defaults filled, keys sorted).
        object.__setattr__(
            self, "params", registry.validate_params(self.scheduler, self.params)
        )
        faults = self.faults
        if faults is not None and not isinstance(faults, FaultPlan):
            faults = FaultPlan(params=faults)
            object.__setattr__(self, "faults", faults)
        if faults is not None and faults.is_empty:
            object.__setattr__(self, "faults", None)
        if self.n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        if self.estimate is not None and self.estimate_tag == "exact":
            raise ConfigurationError(
                "a custom estimate callable requires a non-'exact' "
                "estimate_tag: the tag is the estimator's identity in the "
                "run-cache key, and leaving it at the default would let "
                "different estimators silently share cached results"
            )
        object.__setattr__(
            self,
            "digest",
            ";".join(
                f"{f.name}={getattr(self, f.name)!r}"
                for f in fields(self)
                if f.compare and not (f.name == "faults" and self.faults is None)
            ),
        )

    @classmethod
    def for_workload(
        cls,
        workload: WorkloadSpec,
        scheduler: str,
        n_workers: int = 1,
        seed: int = 0,
        **changes,
    ) -> "RunSpec":
        """``scheduler`` on ``workload``: the workload's cutoff, and its
        short-partition sizing for policies registered ``uses_partition``
        (the others keep the field's default, which their engines ignore).
        ``changes`` override any field, ``cutoff`` included.
        """
        fields = {"cutoff": workload.cutoff}
        if registry.policy_entry(scheduler).uses_partition:
            fields["short_partition_fraction"] = workload.short_partition_fraction
        fields.update(changes)
        return cls(scheduler, n_workers, seed=seed, **fields)

    def with_(self, **changes) -> "RunSpec":
        return replace(self, **changes)

    def replicas(self, n_seeds: int) -> tuple["RunSpec", ...]:
        """The spec's seed-replica family: seeds ``seed .. seed+n-1``.

        Replica 0 is the spec itself, so ``spec.replicas(1) == (spec,)``
        and the single-seed path is unchanged.  Engine RNG streams are
        derived from the seed (see :mod:`repro.core.rng`), so each
        replica is an independent draw of every stochastic mechanism —
        probe sampling, stealing victims, estimator noise.
        """
        seeds = replica_seeds(self.seed, n_seeds)
        return (self,) + tuple(self.with_(seed=s) for s in seeds[1:])


def build_engine(spec: RunSpec) -> ClusterEngine:
    """Construct the cluster, policy and mechanisms for a spec.

    Pure registry lookup: the policy's entry supplies the builder and
    the capability flags that decide partitioning and work stealing (see
    :func:`repro.schedulers.registry.build_engine`).
    """
    return registry.build_engine(spec)


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
