"""Wire and storage models of the scheduler service.

Three kinds of value cross the service's boundaries and the wire form of
each lives here so the HTTP front end, the NDJSON socket, the event
store and the replay fold agree on one schema:

* :class:`Submission` — one client job: task durations, a tenant label
  and an optional runtime estimate.  Validated eagerly (positive finite
  durations, bounded task counts) so malformed input dies at the edge
  with a :class:`~repro.core.errors.ConfigurationError`, never inside
  the simulation thread.
* a run's configuration — the virtual cluster one run schedules
  against — is a :class:`~repro.schedulers.registry.RunSpec`, the type
  every host runs: :func:`run_spec_from_json` parses a client's (or the
  store's) JSON of it, :func:`run_spec_to_json` writes it, and
  :func:`run_id` is the content digest of that JSON, so two submissions
  naming the same configuration land in the same run.
* :class:`LifecycleEvent` — one appended event-store row.  ``vtime`` is
  the simulation clock, ``wtime`` the wall clock of the append, ``seq``
  the store-assigned monotonic sequence number that totally orders the
  log.

Event kinds (the ``KIND_*`` constants of :mod:`repro.cluster.engine`,
which emits all of them) name every lifecycle transition a job goes
through: submitted → probed → queued → started (per task, possibly after
being stolen) → task-completed → completed; ``run-end`` ends a batch run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from hashlib import blake2b
from itertools import chain
from typing import Any, Callable, Mapping

from repro.cluster.engine import EVENT_KINDS
from repro.core.errors import ConfigurationError
from repro.schedulers.registry import FrozenParams, RunSpec

#: Per-job task-count ceiling; protects the single scheduling thread from
#: one pathological submission.
MAX_TASKS_PER_JOB = 10_000

#: Per-run worker ceiling, fig05_scale's largest cluster: the service
#: builds every worker before it answers the run's first job.
MAX_WORKERS = 100_000

#: Longest single task a client may submit, in (virtual) seconds.
MAX_TASK_DURATION = 1e6


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, NaN rejected."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _optional_id(data: Mapping[str, Any], name: str) -> int | None:
    """``data[name]`` as an id: an int (not a bool) or absent/null."""
    value = data.get(name)
    if value is not None and type(value) is not int:
        raise ConfigurationError(
            f"{name} must be an integer or null, got {value!r}"
        )
    return value


@dataclass(slots=True)
class LifecycleEvent:
    """One event-store row: a single lifecycle transition of one run.

    Mutable only in ``seq``, which the store assigns at append time;
    every other field is fixed by the emitter.
    """

    run_id: str
    kind: str
    vtime: float
    job_id: int | None = None
    task_index: int | None = None
    worker_id: int | None = None
    payload: Mapping[str, Any] = field(default_factory=dict)
    wtime: float = 0.0
    seq: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "run_id": self.run_id,
            "kind": self.kind,
            "vtime": self.vtime,
            "wtime": self.wtime,
            "job_id": self.job_id,
            "task_index": self.task_index,
            "worker_id": self.worker_id,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "LifecycleEvent":
        kind = data["kind"]
        if kind not in EVENT_KINDS:
            raise ConfigurationError(f"unknown event kind {kind!r}")
        return cls(
            run_id=data["run_id"],
            kind=kind,
            vtime=float(data["vtime"]),
            job_id=_optional_id(data, "job_id"),
            task_index=_optional_id(data, "task_index"),
            worker_id=_optional_id(data, "worker_id"),
            payload=dict(data.get("payload") or {}),
            wtime=float(data.get("wtime", 0.0)),
            seq=int(data.get("seq", 0)),
        )


#: The cluster-shape fields :func:`run_spec_from_json` reads, each with
#: the cast it applies and the default it assumes when the field is absent.
#: The defaults mirror the paper's standard setting (100 workers, 1.129 s
#: cutoff, 17 % short partition), so a client submitting just
#: ``{"policy": "hawk"}`` gets the canonical configuration.
_SHAPE: tuple[tuple[str, Callable[[Any], Any], Any], ...] = (
    ("n_workers", int, 100),
    ("cutoff", float, 1.129),
    ("short_partition_fraction", float, 0.17),
    ("seed", int, 0),
)


def run_spec_from_json(data: Mapping[str, Any]) -> RunSpec:
    """The run a client payload (or a stored config) names.

    ``RunSpec`` validates and canonicalizes ``params`` against the live
    registry, so the run id is independent of params-dict insertion
    order and of omitted defaults.  This edge adds what only a client
    can get wrong: missing or mistyped fields, integers spelled as
    fractions or booleans, and more than :data:`MAX_WORKERS` workers.
    """
    policy = data.get("policy")
    if not isinstance(policy, str) or not policy:
        raise ConfigurationError("submission needs a 'policy' string")
    params = data.get("params") or {}
    if not isinstance(params, Mapping):
        raise ConfigurationError("'params' must be a mapping")
    for name, cast, _ in _SHAPE:
        # int() would truncate: true is 1 and 100.9 is 100.
        value = data.get(name)
        if cast is int and (
            type(value) is bool
            or type(value) is float
            and math.isfinite(value)
            and not value.is_integer()
        ):
            raise ConfigurationError(
                f"{name} must be an integer, got {value!r}"
            )
    try:
        shape = {
            name: cast(data.get(name, default))
            for name, cast, default in _SHAPE
        }
        if not 1 <= shape["n_workers"] <= MAX_WORKERS:
            raise ConfigurationError(
                f"n_workers must be in [1, {MAX_WORKERS}], "
                f"got {shape['n_workers']}"
            )
        return RunSpec(policy, params=FrozenParams(params), **shape)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"bad run config: {exc}") from exc


def run_spec_to_json(spec: RunSpec) -> dict[str, Any]:
    """The stored form of a served run: every field a client may set."""
    return {
        "policy": spec.scheduler,
        "params": dict(spec.params),
        "n_workers": spec.n_workers,
        "cutoff": spec.cutoff,
        "short_partition_fraction": spec.short_partition_fraction,
        "seed": spec.seed,
    }


def run_id(spec: RunSpec) -> str:
    """The run's stable content digest: same config, same run identity.

    Persisted logs are keyed by it, so it must never change for a
    stored configuration.
    """
    digest = blake2b(
        canonical_json(run_spec_to_json(spec)).encode(), digest_size=4
    ).hexdigest()
    return f"{spec.scheduler}-{digest}"


#: JSON's scalar types, the only ones :func:`config_key` keys.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def config_key(data: Mapping[str, Any]) -> tuple[str, ...] | None:
    """A hashable key for the run config that ``data`` spells, or ``None``.

    The key holds every field :func:`run_spec_from_json` reads, under
    the default it reads, and each ``params`` name and value.  ``None``
    when one of them is not a JSON scalar (a list, a dict, a non-dict
    ``params``): only the parser may judge those.  Equal keys mean the
    parser sees the same values of the same types, so the config parsed
    for one spelling is the config of every spelling with its key.
    """
    get = data.get
    params = get("params") or {}
    if type(params) is not dict:
        return None
    try:
        fields = (
            get("policy"),
            *(get(name, default) for name, _, default in _SHAPE),
            *chain.from_iterable(sorted(params.items())),
        )
        if not _SCALARS.issuperset(map(type, fields)):
            return None
        # The repr of a JSON scalar names its type, so 1, 1.0, true, "1"
        # and null key apart; so do 0.0 and -0.0, which run ids tell apart.
        return tuple(map(repr, fields))
    except (TypeError, ValueError):  # unsortable names; a huge int's repr
        return None


@dataclass(frozen=True, slots=True)
class Submission:
    """One client job submission, validated at the service edge."""

    tasks: tuple[float, ...]
    tenant: str = "default"
    estimate: float | None = None

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ConfigurationError("a submission needs at least one task")
        if len(self.tasks) > MAX_TASKS_PER_JOB:
            raise ConfigurationError(
                f"too many tasks ({len(self.tasks)} > {MAX_TASKS_PER_JOB})"
            )
        for duration in self.tasks:
            if not (
                isinstance(duration, float)
                and math.isfinite(duration)
                and 0.0 < duration <= MAX_TASK_DURATION
            ):
                raise ConfigurationError(
                    f"task durations must be finite floats in "
                    f"(0, {MAX_TASK_DURATION:g}], got {duration!r}"
                )
        if self.estimate is not None and not (
            isinstance(self.estimate, float)
            and math.isfinite(self.estimate)
            and 0.0 < self.estimate <= MAX_TASK_DURATION
        ):
            raise ConfigurationError(
                f"estimate must be a finite positive float, "
                f"got {self.estimate!r}"
            )
        if not self.tenant or len(self.tenant) > 256:
            raise ConfigurationError("tenant must be 1..256 characters")

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Submission":
        tasks = data.get("tasks")
        if not isinstance(tasks, (list, tuple)):
            raise ConfigurationError("'tasks' must be a list of durations")
        try:
            durations = tuple(float(d) for d in tasks)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad task duration: {exc}") from exc
        estimate = data.get("estimate")
        if estimate is not None:
            try:
                estimate = float(estimate)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad estimate: {exc}") from exc
        tenant = data.get("tenant", "default")
        if not isinstance(tenant, str):
            raise ConfigurationError("'tenant' must be a string")
        return cls(tasks=durations, tenant=tenant, estimate=estimate)


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Process-level transport settings: addresses and request limits."""

    host: str = "127.0.0.1"
    http_port: int = 0
    socket_port: int = 0
    max_body_bytes: int = 4 * 1024 * 1024
    drain_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.max_body_bytes < 1024:
            raise ConfigurationError("max_body_bytes must be >= 1024")
        if self.drain_timeout <= 0:
            raise ConfigurationError("drain_timeout must be positive")
