"""Semantic cross-module rules: they import the live registries.

Unlike the syntactic rules, REG001 and REG002 do not read source text —
they interrogate the actual policy and workload registries and the
actual cache-key functions, so a schema hole or a cache-key gap is
caught no matter which module introduced it.  Findings point at the
registered builder's definition site via ``inspect``.

REG001 — registry schema completeness.  Every :class:`Param` of every
``@register_policy`` / ``@register_workload`` entry must carry a
description and closed bounds (numeric params need both ends or
choices; string params need choices), and ``ablation_of`` must resolve
to a registered policy.  A schema is documentation, a fuzz domain and a
validation gate at once; an unbounded or undescribed param is a hole in
all three.

REG002 — cache-key completeness.  The run cache and the trace
materialization cache key on ``RunSpec.digest`` and
``WorkloadSpec.digest()``.  A field or param that does not move the
digest silently aliases distinct experiments to one cached result — the
worst failure mode a cache can have.  The rule perturbs every compared
``RunSpec`` field and every declared param of every registered policy
and workload, and requires each perturbation to change the digest; it
also pins the documented exemption list (``estimate``, stood in for by
``estimate_tag``) so a new non-compared field cannot appear unnoticed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.analysis.findings import Finding
from repro.core.params import Param

#: RunSpec fields excluded from comparison/digest on purpose, with the
#: compared field standing in for each.  REG002 fails if the actual
#: exclusion set drifts from this contract.
RUNSPEC_DIGEST_EXEMPTIONS = {"estimate": "estimate_tag"}

#: The digest itself: derived from the compared fields at construction
#: (never an ``__init__`` argument), so it is what the perturbations
#: below move, not an input that could alias.
RUNSPEC_DIGEST_FIELD = "digest"


def _location(obj: Any, root: Path, fallback: str) -> tuple[str, int]:
    """(repo-relative path, line) of a registered builder's definition."""
    try:
        func = inspect.unwrap(getattr(obj, "__func__", obj))
        source_file = inspect.getsourcefile(func)
        line = func.__code__.co_firstlineno
    except (TypeError, AttributeError, OSError):
        return fallback, 1
    if source_file is None:
        return fallback, 1
    try:
        rel = Path(source_file).resolve().relative_to(root.resolve())
    except ValueError:
        return fallback, 1
    return rel.as_posix(), line


def _param_schema_holes(owner: str, param: Param) -> Iterable[str]:
    if not param.doc.strip():
        yield (
            f"{owner} param '{param.name}' has no doc; every registered "
            "param needs a description"
        )
    if param.type in (int, float):
        if param.choices is None and (
            param.minimum is None or param.maximum is None
        ):
            yield (
                f"{owner} param '{param.name}' ({param.type.__name__}) is "
                "unbounded; declare minimum and maximum (or choices)"
            )
    elif param.type is str and param.choices is None:
        yield (
            f"{owner} param '{param.name}' (str) declares no choices; "
            "an open string param cannot be validated or enumerated"
        )


def _perturbed(param: Param) -> Any | None:
    """A valid value different from the default, or ``None`` if pinned."""
    candidates: list[Any]
    if param.choices is not None:
        candidates = [c for c in param.choices if c != param.default]
    elif param.type is bool:
        candidates = [not param.default]
    elif param.type in (int, float):
        step = 1 if param.type is int else 0.5
        candidates = [param.default + step, param.default - step]
        if param.maximum is not None:
            candidates.append(param.maximum)
        if param.minimum is not None:
            candidates.append(param.minimum)
        candidates = [c for c in candidates if c != param.default]
    else:
        candidates = [param.default + "-x"]
    for candidate in candidates:
        try:
            value = param.validate(candidate)
        except Exception:
            continue
        if value != param.default:
            return value
    return None


def check_registry_schemas(root: Path) -> list[Finding]:
    """REG001: every registered Param documented, bounded, resolvable."""
    from repro.schedulers import registry as policies
    from repro.workloads import registry as workloads

    findings: list[Finding] = []

    def add(obj: Any, fallback: str, message: str) -> None:
        path, line = _location(obj, root, fallback)
        findings.append(
            Finding(rule="REG001", path=path, line=line, col=0, message=message)
        )

    policy_fallback = "src/repro/schedulers/registry.py"
    registered_policies = set(policies.registered_names())
    for name in sorted(registered_policies):
        entry = policies.policy_entry(name)
        owner = f"policy '{name}'"
        if not entry.doc.strip():
            add(entry.builder, policy_fallback, f"{owner} has no doc summary")
        for param in entry.params:
            for hole in _param_schema_holes(owner, param):
                add(entry.builder, policy_fallback, hole)
        if entry.ablation_of and entry.ablation_of not in registered_policies:
            add(
                entry.builder,
                policy_fallback,
                f"{owner} declares ablation_of={entry.ablation_of!r}, "
                "which is not a registered policy",
            )

    workload_fallback = "src/repro/workloads/registry.py"
    for name in sorted(workloads.registered_names()):
        entry = workloads.workload_entry(name)
        owner = f"workload '{name}'"
        if not entry.doc.strip():
            add(entry.builder, workload_fallback, f"{owner} has no doc summary")
        for param in entry.params:
            for hole in _param_schema_holes(owner, param):
                add(entry.builder, workload_fallback, hole)
    return findings


def _runspec_field_variants() -> dict[str, Callable]:
    """One digest-moving perturbation per compared RunSpec field."""
    return {
        "scheduler": lambda spec: spec.with_(
            scheduler="sparrow", params={"probe_ratio": 2}
        ),
        "n_workers": lambda spec: spec.with_(n_workers=spec.n_workers + 1),
        "cutoff": lambda spec: spec.with_(cutoff=spec.cutoff + 1.0),
        "short_partition_fraction": lambda spec: spec.with_(
            short_partition_fraction=spec.short_partition_fraction + 0.01
        ),
        "seed": lambda spec: spec.with_(seed=spec.seed + 1),
        "params": lambda spec: spec.with_(
            params={**spec.params, "probe_ratio": spec.params["probe_ratio"] + 1}
        ),
        "estimate_tag": lambda spec: spec.with_(estimate_tag="reg002-variant"),
        "faults": _faults_variant,
    }


def _faults_variant(spec):
    """A non-empty FaultPlan (empty plans normalize to None by design)."""
    from repro.cluster.faults import FaultPlan

    return spec.with_(faults=FaultPlan.of(crash_fraction=0.1))


def check_cache_key_completeness(root: Path) -> list[Finding]:
    """REG002: every spec field/param moves its cache digest."""
    from dataclasses import fields

    from repro.schedulers import registry as policies
    from repro.schedulers.registry import RunSpec
    from repro.workloads import registry as workloads
    from repro.workloads.registry import WorkloadSpec

    findings: list[Finding] = []
    config_path = "src/repro/schedulers/registry.py"

    def add(path: str, message: str) -> None:
        findings.append(
            Finding(rule="REG002", path=path, line=1, col=0, message=message)
        )

    # -- RunSpec field coverage -----------------------------------------
    base = RunSpec(scheduler="hawk", n_workers=10, cutoff=100.0)
    base_digest = base.digest
    variants = _runspec_field_variants()
    for field in fields(RunSpec):
        if field.name == RUNSPEC_DIGEST_FIELD and not field.init:
            continue
        if not field.compare:
            stand_in = RUNSPEC_DIGEST_EXEMPTIONS.get(field.name)
            if stand_in is None:
                add(
                    config_path,
                    f"RunSpec.{field.name} is excluded from comparison "
                    "and the cache digest with no registered exemption; "
                    "either compare it or document its stand-in in "
                    "RUNSPEC_DIGEST_EXEMPTIONS",
                )
            elif stand_in not in {f.name for f in fields(RunSpec) if f.compare}:
                add(
                    config_path,
                    f"RunSpec.{field.name}'s digest stand-in "
                    f"{stand_in!r} is not a compared field",
                )
            continue
        variant = variants.get(field.name)
        if variant is None:
            add(
                config_path,
                f"RunSpec gained the compared field {field.name!r} that "
                "REG002 does not know how to perturb; extend "
                "_runspec_field_variants so its digest coverage is checked",
            )
            continue
        if variant(base).digest == base_digest:
            add(
                config_path,
                f"perturbing RunSpec.{field.name} does not change "
                "RunSpec.digest; distinct runs would share a cache entry",
            )

    # -- policy params coverage -----------------------------------------
    for name in sorted(policies.registered_names()):
        entry = policies.policy_entry(name)
        spec = RunSpec(scheduler=name, n_workers=10, cutoff=100.0)
        reference = spec.digest
        for param in entry.params:
            value = _perturbed(param)
            if value is None:
                continue  # pinned by its own bounds; nothing to alias
            varied = spec.with_(params={**spec.params, param.name: value})
            if varied.digest == reference:
                add(
                    config_path,
                    f"policy '{name}' param '{param.name}' does not move "
                    "RunSpec.digest; its values would alias in the run cache",
                )

    # -- workload params coverage ---------------------------------------
    names = sorted(workloads.registered_names())
    digests = {n: WorkloadSpec(n).digest() for n in names}
    if len(set(digests.values())) != len(names):
        add(
            "src/repro/workloads/registry.py",
            "two registered workloads share a WorkloadSpec digest",
        )
    for name in names:
        entry = workloads.workload_entry(name)
        spec = WorkloadSpec(name)
        reference = spec.digest()
        for param in entry.params:
            value = _perturbed(param)
            if value is None:
                continue
            if spec.with_params(**{param.name: value}).digest() == reference:
                add(
                    "src/repro/workloads/registry.py",
                    f"workload '{name}' param '{param.name}' does not move "
                    "WorkloadSpec.digest(); distinct traces would alias",
                )
    return findings


@dataclass(frozen=True, slots=True)
class SemanticRule:
    """A semantic check with the Rule id/title/explain surface."""

    rule_id: str
    title: str
    explain: str
    #: ``run(repo_root)`` -> findings against the live registries.
    run: Callable[[Path], list[Finding]]


SEMANTIC_RULES: tuple[SemanticRule, ...] = (
    SemanticRule(
        "REG001",
        "registry param schemas complete and resolvable",
        """\
Every Param of every @register_policy / @register_workload entry must
carry a description and closed bounds (numeric params need both ends or
choices; string params need choices), every entry needs a doc summary,
and `ablation_of` must resolve to a registered policy.  A schema is
documentation, a fuzz domain and a validation gate at once; an
unbounded or undescribed param is a hole in all three.  The rule runs
against the *live* registries, so it covers out-of-tree registrations
too.""",
        check_registry_schemas,
    ),
    SemanticRule(
        "REG002",
        "cache-key completeness over spec fields and params",
        """\
The run cache keys on RunSpec.digest + Trace.content_digest(),
and trace materialization keys on WorkloadSpec.digest().  A field or
param that does not move its digest silently aliases distinct
experiments to one cached result — the worst failure mode a cache can
have.  The rule perturbs every compared RunSpec field, every declared
param of every registered policy and workload, and requires each
perturbation to change the digest; non-compared fields must appear in
RUNSPEC_DIGEST_EXEMPTIONS with a compared stand-in (estimate ->
estimate_tag), so a new uncompared field cannot slip in unnoticed.  The
one exception is RunSpec.digest, the digest string itself, which no
caller can pass in: the spec derives it from the compared fields.""",
        check_cache_key_completeness,
    ),
)
