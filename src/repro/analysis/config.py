"""Path-scoped rule configuration for reprolint.

The determinism contract is not uniform across the tree: the simulation
paths must be bit-reproducible and the metrics layer must accumulate in
a defined order (one ruleset covers both), while the tool paths
(benchmark harness, prototype runtime, experiment drivers) legitimately
read wall clocks and measure things.  Each scope names directory prefixes (repo-relative, posix) and
the syntactic rules enforced under them; the first matching scope wins.

Semantic rules (REG001/REG002) are not path-scoped — they run once per
invocation against the live registries.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The full determinism ruleset of the simulation core.
SIM_RULES: tuple[str, ...] = (
    "DET001",
    "DET002",
    "DET003",
    "DET004",
    "DET005",
    "PURE001",
)

#: Tool paths: wall clocks and measurement are their job, but global RNG
#: state and frozen-instance mutation stay forbidden everywhere.
TOOL_RULES: tuple[str, ...] = ("DET002", "PURE001")


@dataclass(frozen=True, slots=True)
class Scope:
    """One path scope: directory prefixes plus the rules active there."""

    name: str
    prefixes: tuple[str, ...]
    rules: tuple[str, ...]

    def matches(self, relpath: str) -> bool:
        return any(
            relpath == p or relpath.startswith(p + "/") for p in self.prefixes
        )


#: First match wins; order sim scopes before the tool catch-all.
SCOPES: tuple[Scope, ...] = (
    Scope(
        "sim",
        (
            "src/repro/core",
            "src/repro/cluster",
            "src/repro/schedulers",
            "src/repro/workloads",
            "src/repro/metrics",
        ),
        SIM_RULES,
    ),
    Scope(
        "tool",
        (
            "src/repro/experiments",
            "src/repro/bench",
            "src/repro/runtime",
            "src/repro/analysis",
            # The scheduler service tracks the wall clock by design (its
            # virtual time *is* a function of it), but its RNG use must
            # stay seeded and frozen configs immutable.
            "src/repro/service",
        ),
        TOOL_RULES,
    ),
)


def scope_for(relpath: str) -> Scope:
    """The scope governing one repo-relative path.

    Paths outside every declared scope (a file handed to the CLI
    explicitly) get the full sim ruleset: when in doubt, strict.
    """
    for scope in SCOPES:
        if scope.matches(relpath):
            return scope
    return Scope("default", (), SIM_RULES)
