"""Pluggable workload registry: the open construction API for traces.

The mirror image of :mod:`repro.schedulers.registry` on the workload
axis.  Every trace generator registers itself here with a *name*, a
typed *parameter schema* (shared :class:`~repro.core.params.Param`
machinery) and a ``(params, seed) -> Trace`` factory; experiment code
names its input workload as a :class:`WorkloadSpec` — registered name
plus frozen, schema-validated params — instead of calling a generator
module directly.  Adding a workload — including one living entirely
outside this package — therefore never touches the experiment layer:
register it and every sweep, figure driver, cache key and CLI listing
picks it up.

A registration consists of

* ``name`` — the string accepted by ``WorkloadSpec.name``;
* ``params`` — a tuple of :class:`~repro.core.params.Param`
  declarations.  ``WorkloadSpec`` validates its ``params`` mapping at
  construction and canonicalizes it (defaults filled, keys sorted), so
  two specs that differ only in params-dict insertion order or in
  omitted-vs-explicit defaults are the *same* workload and materialize
  the *same* trace object;
* reporting metadata — ``cutoff`` (the workload's long/short boundary)
  and ``short_partition_fraction`` (Hawk's partition sizing for it), so
  drivers can build matched :class:`~repro.experiments.config.RunSpec`
  pairs without per-workload special cases;
* ``quick_params`` — the param overrides of the workload's cheap test
  scale, letting tests iterate the whole zoo generically.

Materialization is cached per process and keyed on the spec's canonical
digest plus the seed: ``WorkloadSpec("google").trace(0)`` is the same
:class:`~repro.workloads.spec.Trace` *object* everywhere in a session,
so the run cache and the shared-memory trace transport (both keyed on
``Trace.content_digest()``) see one trace per distinct
``(canonical params, seed)``.  :func:`at_scale` names a workload at a
figure driver's ``"quick"`` or ``"full"`` scale.

A ``WorkloadSpec`` is itself a ``seed -> Trace`` callable, i.e. a
:data:`~repro.workloads.replication.TraceFactory`: pass it wherever
seed-replicated machinery wants a factory.

Registering::

    from repro.workloads.registry import register_workload
    from repro.core.params import Param

    @register_workload(
        "my-trace",
        params=(Param("n_jobs", int, default=500, minimum=1),),
        cutoff=900.0,
        short_partition_fraction=0.1,
        quick_params={"n_jobs": 50},
    )
    def my_trace(params, seed):
        return Trace([...], name="my-trace")

The committed page ``benchmarks/results/registry_docs/workloads.md``
renders every registration (doc line, metadata, quick overrides and
each param's type, default, range and choices);
``tests/experiments/test_workloads_cli.py::test_committed_doc_pages_match_live_registries``
fails when it drifts from the live registry.  Regenerate it on purpose
with ``python -m repro.experiments.workloads docs``.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from repro.core.errors import ConfigurationError
from repro.core.params import FrozenParams, Param, check_schema, validate_against
from repro.workloads.spec import Trace

#: A registered factory: validated params plus seed in, trace out.
WorkloadBuilder = Callable[[Mapping, int], Trace]


@dataclass(frozen=True, slots=True)
class WorkloadEntry:
    """One registered workload: builder plus schema plus metadata."""

    name: str
    builder: WorkloadBuilder = field(compare=False)
    params: tuple[Param, ...] = ()
    #: Long/short boundary the paper-style reporting uses for this trace.
    cutoff: float = 0.0
    #: Hawk's short-partition sizing when run on this trace.
    short_partition_fraction: float = 0.0
    #: Param overrides of the cheap (test/CI smoke) scale.
    quick_params: Mapping = FrozenParams()
    doc: str = ""


_REGISTRY: dict[str, WorkloadEntry] = {}


#: Generator modules that register the built-in workloads on import.
_BUILTIN_MODULES = (
    "repro.workloads.google",
    "repro.workloads.kmeans",
    "repro.workloads.motivation",
    "repro.workloads.scaling",
    "repro.workloads.scenarios",
)


def _ensure_builtins() -> None:
    """Import the built-in generator modules so they register themselves."""
    for module in _BUILTIN_MODULES:
        if module not in sys.modules:
            importlib.import_module(module)


def register_workload(
    name: str,
    *,
    params: Iterable[Param] = (),
    cutoff: float,
    short_partition_fraction: float = 0.0,
    quick_params: Mapping | None = None,
    doc: str | None = None,
):
    """Function decorator adding one workload to the registry.

    The decorated function is the builder: it receives the validated
    params mapping and the seed, and returns the generated trace.
    Registration fails loudly on duplicate names, duplicate param names
    and quick-scale overrides that do not themselves validate.
    """
    params = tuple(params)
    check_schema(f"workload {name!r}", params)
    if cutoff <= 0.0:
        raise ConfigurationError(
            f"workload {name!r} needs a positive long/short cutoff, "
            f"got {cutoff}"
        )
    if not 0.0 <= short_partition_fraction < 1.0:
        raise ConfigurationError(
            f"workload {name!r} short_partition_fraction must be in "
            f"[0, 1), got {short_partition_fraction}"
        )
    # quick_params must be a valid (partial) assignment of the schema;
    # only the overrides themselves are stored, so the doc page shows what
    # the quick scale actually changes.
    by_name = {p.name: p for p in params}
    quick = dict(quick_params or {})
    unknown = sorted(set(quick) - set(by_name))
    if unknown:
        raise ConfigurationError(
            f"workload {name!r} quick_params name(s) {unknown} are not "
            f"declared params: {sorted(by_name)}"
        )
    quick = {k: by_name[k].validate(v) for k, v in quick.items()}

    def decorate(builder: WorkloadBuilder) -> WorkloadBuilder:
        if builder.__module__ not in _BUILTIN_MODULES:
            # The built-ins register first, as if this package had loaded
            # them eagerly: a plugin cannot claim a built-in name.
            _ensure_builtins()
        if name in _REGISTRY:
            raise ConfigurationError(f"workload {name!r} is already registered")
        summary = doc
        if summary is None:
            lines = (builder.__doc__ or "").strip().splitlines()
            summary = lines[0] if lines else ""
        _REGISTRY[name] = WorkloadEntry(
            name=name,
            builder=builder,
            params=params,
            cutoff=cutoff,
            short_partition_fraction=short_partition_fraction,
            quick_params=FrozenParams(quick),
            doc=summary,
        )
        return builder

    return decorate


def unregister(name: str) -> None:
    """Remove one registration (test/plugin teardown helper).

    Also evicts the workload's materialized traces: the cache keys on
    (name, canonical params), not on the builder, so a later
    re-registration under the same name must not serve the old
    builder's traces.
    """
    _REGISTRY.pop(name, None)
    prefix = f"workload:{name};"
    for key in [k for k in _MATERIALIZED if k[0].startswith(prefix)]:
        del _MATERIALIZED[key]


def registered_names() -> tuple[str, ...]:
    """Every registered workload name, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def workload_entry(name: str) -> WorkloadEntry:
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; registered workloads: "
            f"{sorted(_REGISTRY)}"
        ) from None


def validate_params(name: str, params: Mapping | None = None) -> FrozenParams:
    """Schema-check one params mapping; returns it canonicalized."""
    entry = workload_entry(name)
    return validate_against(f"workload {name!r}", entry.params, params)


# -- per-process materialization cache ----------------------------------
#: Generated traces keyed on (canonical workload digest, seed).  Gives
#: object identity within a session — every figure asking for the same
#: workload at the same seed shares one Trace object, so the run cache
#: and the shared-memory transport (keyed on the trace's content digest)
#: serialize and publish it exactly once.
_MATERIALIZED: dict[tuple[str, int], Trace] = {}


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """First-class trace identity: registered name + frozen params.

    The workload analogue of :class:`~repro.experiments.config.RunSpec`:
    ``params`` is validated against the registry schema at construction
    — unknown names, wrong types and out-of-range values fail fast —
    and stored canonically ordered with defaults filled, so equality,
    hashing and :meth:`digest` are independent of params-dict insertion
    order.  Calling the spec (``spec(seed)``) materializes the trace
    through the per-process cache, which makes a ``WorkloadSpec`` a
    drop-in :data:`~repro.workloads.replication.TraceFactory`.
    """

    name: str
    params: Mapping = FrozenParams()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", validate_params(self.name, self.params))

    @property
    def entry(self) -> WorkloadEntry:
        return workload_entry(self.name)

    @property
    def cutoff(self) -> float:
        """The workload's long/short reporting boundary."""
        return self.entry.cutoff

    @property
    def short_partition_fraction(self) -> float:
        """Hawk's short-partition sizing for this workload."""
        return self.entry.short_partition_fraction

    def with_(self, **changes) -> "WorkloadSpec":
        """A copy with dataclass fields replaced (``name=``/``params=``)."""
        return replace(self, **changes)

    def with_params(self, **overrides) -> "WorkloadSpec":
        """A copy with individual params overridden, the rest kept."""
        merged = dict(self.params)
        merged.update(overrides)
        return replace(self, params=merged)

    def digest(self) -> str:
        """Canonical identity string: name plus canonically-ordered params.

        Two specs with equal digests materialize byte-identical traces
        at every seed (the builder is a pure function of
        ``(params, seed)``), which is what lets run-cache entries and
        shared-memory segments key on the downstream trace digest
        without ever re-hashing trace bytes per call site.
        """
        return f"workload:{self.name};{self.params!r}"

    def trace(self, seed: int = 0) -> Trace:
        """The materialized trace, cached per ``(digest, seed)``."""
        key = (self.digest(), seed)
        trace = _MATERIALIZED.get(key)
        if trace is None:
            trace = self.entry.builder(self.params, seed)
            if not isinstance(trace, Trace):
                raise ConfigurationError(
                    f"workload {self.name!r} builder returned "
                    f"{type(trace).__name__}, expected Trace"
                )
            _MATERIALIZED[key] = trace
        return trace

    def __call__(self, seed: int) -> Trace:
        """TraceFactory protocol: ``seed -> Trace``."""
        return self.trace(seed)


def quick_spec(name: str, params: Mapping | None = None) -> WorkloadSpec:
    """The workload at its registered quick (test/smoke) scale.

    ``params`` overrides are applied on top of the entry's
    ``quick_params``.
    """
    entry = workload_entry(name)
    merged = dict(entry.quick_params)
    if params:
        merged.update(params)
    return WorkloadSpec(name, merged)


def at_scale(name: str, scale: str) -> WorkloadSpec:
    """The workload at a driver scale: ``"quick"`` or ``"full"`` (defaults)."""
    if scale == "quick":
        return quick_spec(name)
    if scale == "full":
        return WorkloadSpec(name)
    raise ConfigurationError(
        f"unknown workload scale {scale!r}; expected 'quick' or 'full'"
    )
