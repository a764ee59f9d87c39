"""Pluggable policy registry: the open construction API for schedulers.

Every scheduler policy registers itself here with a *name*, a typed
*parameter schema* and *capability flags*; engine construction
(:func:`build_engine`) is a pure registry lookup.  Adding a policy —
including one living entirely outside this package — therefore never
touches the experiment layer: register it and every sweep, figure driver
and cache key picks it up.  :class:`RunSpec`, the one description of a
run, lives here too, so every host — batch sweeps, the threaded
prototype (:mod:`repro.runtime`) and the scheduler service
(:mod:`repro.service`) — builds from the same type without importing
the experiment layer.

A registration consists of

* ``name`` — the string accepted by ``RunSpec.scheduler``;
* ``params`` — a tuple of :class:`Param` declarations (name, type,
  default, validation range/choices).  ``RunSpec`` validates its
  ``params`` mapping against this schema at construction time and
  canonicalizes it (defaults filled, keys sorted), which is what makes
  the run-cache key independent of params-dict insertion order.  The
  ``Param``/``FrozenParams`` machinery lives in :mod:`repro.core.params`
  and is shared with the workload registry
  (:mod:`repro.workloads.registry`); this module re-exports it;
* capability flags — ``uses_stealing`` (the engine attaches the
  :class:`~repro.schedulers.stealing.WorkStealing` mechanism, configured
  from the policy's declared ``steal_cap`` param) and ``uses_partition``
  (the cluster reserves ``RunSpec.short_partition_fraction`` of its
  workers for short tasks).  These replace the closed ``_STEALING`` /
  ``_PARTITIONED`` name sets that predated the registry.  A third flag,
  ``serves_online`` (default ``True``), declares that the policy can be
  driven one submission at a time by the long-running scheduler service
  (:mod:`repro.service`) and the threaded prototype: policies whose
  decisions depend on whole-trace knowledge no online client could
  supply (the ``omniscient`` oracle) opt out, and both hosts reject
  them through :func:`online_entry`;
* ``ablation_of`` — the base policy this entry is an ablation of
  (e.g. the ``hawk-no-*`` family names ``"hawk"``), letting drivers such
  as Figure 7 enumerate an ablation family from the registry.

Policies in an ablation family share one param schema so a spec can hop
between family members (``spec.with_(scheduler=variant)``) without
re-declaring params.  A declared-but-inert param (``steal_cap`` on
``hawk-no-stealing``) is accepted for exactly this reason; keep such
params at their defaults or the cache key will distinguish runs that are
semantically identical.

Registering::

    from repro.schedulers.registry import Param, register_policy

    @register_policy(
        "my-policy",
        params=(Param("fanout", int, default=4, minimum=1),),
    )
    class MyPolicy(SchedulerPolicy):
        @classmethod
        def from_params(cls, params):
            return cls(fanout=params["fanout"])

A class registration uses its ``from_params`` classmethod as the
builder; a function registration is the builder itself (it receives the
validated params mapping and returns a policy instance) — used when one
class backs several registered names, like the Hawk ablations.

The committed page ``benchmarks/results/registry_docs/policies.md``
renders every registration (doc line, flags, ``ablation_of`` and each
param's type, default, range and choices);
``tests/experiments/test_workloads_cli.py::test_committed_doc_pages_match_live_registries``
fails when it drifts from the live registry.  Regenerate it on purpose
with ``python -m repro.experiments.workloads docs``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Callable, Iterable

from repro.cluster import Cluster, ClusterEngine, EngineConfig
from repro.cluster.engine import LifecycleSink
from repro.cluster.faults import FaultPlan
from repro.core.errors import ConfigurationError
from repro.core.params import (  # noqa: F401  (re-exported: the public API)
    PARAM_TYPES,
    FrozenParams,
    Param,
    check_schema,
    validate_against,
)
from repro.schedulers.stealing import WorkStealing
from repro.workloads.replication import replica_seeds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.schedulers.base import SchedulerPolicy
    from repro.workloads.registry import WorkloadSpec


@dataclass(frozen=True, slots=True)
class PolicyEntry:
    """One registered policy: builder plus schema plus capabilities."""

    name: str
    builder: Callable[[Mapping], "SchedulerPolicy"] = field(compare=False)
    params: tuple[Param, ...] = ()
    uses_stealing: bool = False
    uses_partition: bool = False
    serves_online: bool = True
    ablation_of: str | None = None
    doc: str = ""


_REGISTRY: dict[str, PolicyEntry] = {}


def _ensure_builtins() -> None:
    """Import the package so built-in policy modules register themselves."""
    import repro.schedulers  # noqa: F401  (idempotent side-effect import)


def register_policy(
    name: str,
    *,
    params: Iterable[Param] = (),
    uses_stealing: bool = False,
    uses_partition: bool = False,
    serves_online: bool = True,
    ablation_of: str | None = None,
    doc: str | None = None,
):
    """Class/function decorator adding one policy to the registry.

    On a class, the class's ``from_params(params)`` classmethod becomes
    the builder; on a function, the function itself is the builder.
    Registration fails loudly on duplicate names, duplicate param names,
    and a stealing-capable policy that forgets to declare ``steal_cap``
    (the engine reads it to configure the stealing mechanism).
    """
    params = tuple(params)
    if name in _REGISTRY:
        raise ConfigurationError(f"policy {name!r} is already registered")
    check_schema(f"policy {name!r}", params)
    if uses_stealing and "steal_cap" not in {p.name for p in params}:
        raise ConfigurationError(
            f"policy {name!r} uses stealing but declares no 'steal_cap' param"
        )

    def decorate(obj):
        if isinstance(obj, type):
            builder = getattr(obj, "from_params", None)
            if builder is None:
                raise ConfigurationError(
                    f"class {obj.__name__} registered as {name!r} needs a "
                    "from_params(params) classmethod"
                )
        else:
            builder = obj
        summary = doc
        if summary is None:
            lines = (obj.__doc__ or "").strip().splitlines()
            summary = lines[0] if lines else ""
        _REGISTRY[name] = PolicyEntry(
            name=name,
            builder=builder,
            params=params,
            uses_stealing=uses_stealing,
            uses_partition=uses_partition,
            serves_online=serves_online,
            ablation_of=ablation_of,
            doc=summary,
        )
        return obj

    return decorate


def unregister(name: str) -> None:
    """Remove one registration (test/plugin teardown helper)."""
    _REGISTRY.pop(name, None)


def registered_names() -> tuple[str, ...]:
    """Every registered policy name, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def policy_entry(name: str) -> PolicyEntry:
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; registered policies: "
            f"{sorted(_REGISTRY)}"
        ) from None


def ablations_of(base: str) -> tuple[str, ...]:
    """Names registered as ablations of ``base``, in registration order."""
    _ensure_builtins()
    return tuple(
        e.name for e in _REGISTRY.values() if e.ablation_of == base
    )


def validate_params(name: str, params: Mapping | None = None) -> FrozenParams:
    """Schema-check one params mapping; returns it canonicalized.

    Unknown names, wrong types and out-of-range values raise
    :class:`~repro.core.errors.ConfigurationError`; undeclared entries
    are filled with their schema defaults.
    """
    entry = policy_entry(name)
    return validate_against(f"policy {name!r}", entry.params, params)


def online_entry(name: str) -> PolicyEntry:
    """``name``'s entry, for a host that serves jobs one at a time.

    The scheduler service and the threaded prototype both call this:
    a policy registered ``serves_online=False`` (the ``omniscient``
    oracle) needs whole-trace knowledge no online client supplies.
    """
    entry = policy_entry(name)
    if not entry.serves_online:
        raise ConfigurationError(
            f"policy {name!r} is registered with serves_online=False "
            "and cannot be served"
        )
    return entry


@dataclass(frozen=True, slots=True)
class RunSpec:
    """Everything needed to build one engine run (minus the trace), on
    every host.

    ``scheduler`` must name a registered policy; ``params`` holds that
    policy's knobs (e.g. ``probe_ratio``, ``steal_cap``, a scenario
    policy's ``batch_size``) and is validated against the registry
    schema at construction — unknown names, wrong types and
    out-of-range values all fail fast, as do a non-positive or
    non-finite ``cutoff`` and a ``short_partition_fraction`` outside
    ``[0, 1)``.  The stored mapping is frozen and canonically ordered,
    so equality, hashing and the run-cache key are independent of
    params-dict insertion order, and undeclared params are pinned at
    their schema defaults (two specs differing only in an
    omitted-vs-explicit default are the *same* spec).
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
            self, "params", validate_params(self.scheduler, self.params)
        )
        faults = self.faults
        if faults is not None and not isinstance(faults, FaultPlan):
            faults = FaultPlan(params=faults)
            object.__setattr__(self, "faults", faults)
        if faults is not None and faults.is_empty:
            object.__setattr__(self, "faults", None)
        if self.n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        if not (math.isfinite(self.cutoff) and self.cutoff > 0):
            raise ConfigurationError(
                f"cutoff must be positive and finite, got {self.cutoff}"
            )
        if not 0.0 <= self.short_partition_fraction < 1.0:
            raise ConfigurationError(
                "short_partition_fraction must be in [0, 1), got "
                f"{self.short_partition_fraction}"
            )
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
        workload: "WorkloadSpec",
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
        if policy_entry(scheduler).uses_partition:
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


def build_cluster(spec: RunSpec, entry: PolicyEntry) -> Cluster:
    """The spec's cluster, reserving the short partition only for
    policies that declare ``uses_partition``."""
    fraction = spec.short_partition_fraction if entry.uses_partition else 0.0
    return Cluster(spec.n_workers, short_partition_fraction=fraction)


def build_engine(spec: RunSpec, sink: LifecycleSink | None = None) -> ClusterEngine:
    """Registry-driven engine construction for one run.

    Everything the engine needs is read off ``spec`` and the policy's
    registry entry: the partition fraction applies only when the policy
    declares ``uses_partition``, and the work-stealing mechanism is
    attached (configured from the ``steal_cap`` param) only when it
    declares ``uses_stealing``.  ``sink`` receives the engine's
    lifecycle events (the scheduler service's event log); sweeps pass
    none.
    """
    entry = policy_entry(spec.scheduler)
    # RunSpec validated and canonicalized params at construction; specs
    # arriving over a process boundary carry that same frozen mapping.
    params = spec.params
    cluster = build_cluster(spec, entry)
    scheduler = entry.builder(params)
    stealing = (
        WorkStealing(cap=params["steal_cap"]) if entry.uses_stealing else None
    )
    config = EngineConfig(cutoff=spec.cutoff, seed=spec.seed)
    engine = ClusterEngine(
        cluster,
        scheduler,
        config,
        stealing=stealing,
        estimate=spec.estimate,
        sink=sink,
    )
    if spec.faults is not None:
        engine.attach_faults(spec.faults)
    return engine
