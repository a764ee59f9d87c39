"""Typed parameter schemas shared by the policy and workload registries.

Both registries (:mod:`repro.schedulers.registry` and
:mod:`repro.workloads.registry`) expose the same construction contract:
an entry declares a tuple of :class:`Param` schemas, callers supply a
plain mapping, and validation returns a :class:`FrozenParams` — an
immutable mapping in canonical (sorted-key) order with defaults filled.
That canonical form is what makes every downstream content key (run
cache, trace materialization, shared-memory transport) independent of
params-dict insertion order and of omitted-vs-explicit defaults.

This module is the single home of that machinery; the registries only
add their entry types and lookup tables on top.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.errors import ConfigurationError

#: Types a declared parameter may take.
PARAM_TYPES = (int, float, bool, str)


@dataclass(frozen=True, slots=True)
class Param:
    """One declared parameter: name, type, default, valid range."""

    name: str
    type: type
    default: Any
    minimum: float | None = None
    maximum: float | None = None
    choices: tuple | None = None
    doc: str = ""

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ConfigurationError(
                f"param name must be an identifier, got {self.name!r}"
            )
        if self.type not in PARAM_TYPES:
            raise ConfigurationError(
                f"param {self.name!r} type must be one of "
                f"{[t.__name__ for t in PARAM_TYPES]}, got {self.type!r}"
            )
        # A schema with a bad default is a bug; also canonicalizes an
        # int default declared for a float param.
        object.__setattr__(self, "default", self.validate(self.default))

    def validate(self, value: Any) -> Any:
        """Check (and int->float coerce) one value; returns the value."""
        if self.type is float and type(value) is int:
            value = float(value)
        # bool subclasses int: an explicit check keeps True out of int params.
        ok = (
            type(value) is bool
            if self.type is bool
            else isinstance(value, self.type) and not isinstance(value, bool)
        )
        if not ok:
            raise ConfigurationError(
                f"param {self.name!r} expects {self.type.__name__}, "
                f"got {value!r} ({type(value).__name__})"
            )
        # NaN compares false against every bound, so it must be caught here.
        if self.type is float and not math.isfinite(value):
            raise ConfigurationError(
                f"param {self.name!r} must be finite, got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ConfigurationError(
                f"param {self.name!r} must be >= {self.minimum}, got {value!r}"
            )
        if self.maximum is not None and value > self.maximum:
            raise ConfigurationError(
                f"param {self.name!r} must be <= {self.maximum}, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ConfigurationError(
                f"param {self.name!r} must be one of {self.choices}, "
                f"got {value!r}"
            )
        return value


class FrozenParams(Mapping):
    """Immutable, hashable params mapping with a canonical order.

    Keys are sorted, so two mappings built from differently-ordered dicts
    are equal, hash alike and — crucially — ``repr()`` alike: content
    keys (the run cache, trace materialization) are derived from reprs
    and must not depend on insertion order.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Mapping | Iterable[tuple[str, Any]] = ()) -> None:
        pairs = items.items() if isinstance(items, Mapping) else items
        canonical = tuple(sorted((str(k), v) for k, v in pairs))
        names = [k for k, _ in canonical]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate param names in {names}")
        object.__setattr__(self, "_items", canonical)

    def __getitem__(self, key: str) -> Any:
        for k, v in self._items:
            if k == key:
                return v
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return (k for k, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenParams):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"FrozenParams({inner})"

    def __reduce__(self) -> tuple[type, tuple[tuple[tuple[str, Any], ...]]]:
        return (FrozenParams, (self._items,))


#: The spellings of an on/off setting, an environment variable's or a
#: service request arg's, compared case-insensitively.
FLAG_SPELLINGS = {
    "1": True, "on": True, "yes": True, "true": True,
    "0": False, "off": False, "no": False, "false": False,
}


def parse_flag(name: str, value: Any, default: bool) -> bool:
    """One on/off setting ``name``: a JSON boolean, JSON ``0``/``1`` or a
    :data:`FLAG_SPELLINGS` string; ``None`` or empty means ``default``.

    Anything else raises :class:`~repro.core.errors.ConfigurationError`.
    """
    if value is None:
        return default
    if type(value) is bool:
        return value
    if type(value) is int and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        raw = value.strip().lower()
        if not raw:
            return default
        if raw in FLAG_SPELLINGS:
            return FLAG_SPELLINGS[raw]
    raise ConfigurationError(
        f"{name} must be one of 1/0, on/off, yes/no, true/false, got {value!r}"
    )


def check_schema(owner: str, params: tuple[Param, ...]) -> None:
    """Reject a schema declaring the same param name twice."""
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"{owner} declares duplicate params: {names}")


def validate_against(
    owner: str, schema: tuple[Param, ...], params: Mapping | None = None
) -> FrozenParams:
    """Schema-check one params mapping; returns it canonicalized.

    Unknown names, wrong types and out-of-range values raise
    :class:`~repro.core.errors.ConfigurationError`; undeclared entries
    are filled with their schema defaults.  ``owner`` names the entry in
    error messages (e.g. ``"policy 'hawk'"``).
    """
    given = dict(params) if params else {}
    declared = {p.name for p in schema}
    unknown = sorted(set(given) - declared)
    if unknown:
        raise ConfigurationError(
            f"unknown param(s) {unknown} for {owner}; "
            f"declared: {sorted(declared)}"
        )
    return FrozenParams(
        {p.name: p.validate(given.get(p.name, p.default)) for p in schema}
    )
