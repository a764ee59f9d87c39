"""Workload-zoo CLI: list and summarize registered workloads, render docs.

The registry's front door for humans::

    python -m repro.experiments.workloads list
    python -m repro.experiments.workloads show pareto-heavy --quick --seed 1
    python -m repro.experiments.workloads docs --output benchmarks/results/registry_docs

* ``list`` (the default) — one line per registered workload (name,
  metadata, doc).
* ``show`` — materialize one workload (default or ``--quick`` scale,
  ``--set name=value`` overrides) and print its summary statistics.
* ``docs`` — render the per-policy and per-workload registry doc pages
  (markdown): every entry's doc line, flags and metadata, and each
  param's type, default, range, choices and quick override.  The
  committed copies under ``benchmarks/results/registry_docs/`` are the
  one registry snapshot; ``test_committed_doc_pages_match_live_registries``
  (``tests/experiments/test_workloads_cli.py``) fails when they drift.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.errors import ConfigurationError
from repro.schedulers import registry as policy_registry
from repro.workloads import registry as workload_registry
from repro.workloads.analysis import workload_summary
from repro.workloads.registry import WorkloadSpec, quick_spec


def _parse_overrides(pairs: list[str]) -> dict:
    """``name=value`` strings to a params dict (int/float/str inferred)."""
    overrides = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise ConfigurationError(f"expected name=value, got {pair!r}")
        value: object = raw
        for parse in (int, float):
            try:
                value = parse(raw)
                break
            except ValueError:
                continue
        overrides[name] = value
    return overrides


def cmd_list() -> str:
    lines = []
    for name in sorted(workload_registry.registered_names()):
        entry = workload_registry.workload_entry(name)
        lines.append(
            f"{name:<18} cutoff={entry.cutoff:<8g} "
            f"short-fraction={entry.short_partition_fraction:<5g} {entry.doc}"
        )
    return "\n".join(lines) + "\n"


def cmd_show(name: str, quick: bool, seed: int, overrides: dict) -> str:
    spec = (
        quick_spec(name, overrides) if quick else WorkloadSpec(name, overrides)
    )
    trace = spec.trace(seed)
    summary = workload_summary(trace, spec.cutoff)
    lines = [
        f"workload {name}  seed={seed}  params {dict(spec.params)}",
        f"  jobs                {len(trace)}",
        f"  tasks               {trace.total_tasks}",
        f"  task-seconds        {trace.total_task_seconds:.0f}",
        f"  horizon (s)         {trace.horizon:.0f}",
        f"  nodes @ full util   {trace.nodes_for_full_utilization():.0f}",
        f"  cutoff (s)          {spec.cutoff:g}",
        f"  long-job fraction   {summary.long_fraction:.4f}",
        f"  long task-sec share {summary.task_seconds_share:.4f}",
        f"  trace digest        {trace.content_digest()}",
    ]
    return "\n".join(lines) + "\n"


# -- registry doc pages --------------------------------------------------
def _param_rows(params) -> list[str]:
    rows = ["| param | type | default | range | doc |", "| --- | --- | --- | --- | --- |"]
    for p in params:
        bounds = []
        if p.minimum is not None or p.maximum is not None:
            lo = "-inf" if p.minimum is None else f"{p.minimum:g}"
            hi = "+inf" if p.maximum is None else f"{p.maximum:g}"
            bounds.append(f"[{lo}, {hi}]")
        if p.choices is not None:
            bounds.append(f"one of {list(p.choices)}")
        rows.append(
            f"| `{p.name}` | {p.type.__name__} | `{p.default!r}` "
            f"| {'; '.join(bounds)} | {p.doc} |"
        )
    return rows


def render_policy_docs() -> str:
    lines = [
        "# Registered scheduler policies",
        "",
        "Generated from `repro.schedulers.registry` — do not edit by hand;",
        "regenerate with `python -m repro.experiments.workloads docs`.",
        "",
    ]
    for name in sorted(policy_registry.registered_names()):
        entry = policy_registry.policy_entry(name)
        lines.append(f"## `{name}`")
        lines.append("")
        if entry.doc:
            lines.append(entry.doc)
            lines.append("")
        flags = [
            f"stealing: {'yes' if entry.uses_stealing else 'no'}",
            f"partition: {'yes' if entry.uses_partition else 'no'}",
            f"online: {'yes' if entry.serves_online else 'no'}",
        ]
        if entry.ablation_of:
            flags.append(f"ablation of `{entry.ablation_of}`")
        lines.append("- " + "; ".join(flags))
        lines.append("")
        if entry.params:
            lines.extend(_param_rows(entry.params))
            lines.append("")
    return "\n".join(lines)


def render_workload_docs() -> str:
    lines = [
        "# Registered workloads",
        "",
        "Generated from `repro.workloads.registry` — do not edit by hand;",
        "regenerate with `python -m repro.experiments.workloads docs`.",
        "",
    ]
    for name in sorted(workload_registry.registered_names()):
        entry = workload_registry.workload_entry(name)
        lines.append(f"## `{name}`")
        lines.append("")
        if entry.doc:
            lines.append(entry.doc)
            lines.append("")
        lines.append(
            f"- long/short cutoff: {entry.cutoff:g} s; "
            f"short-partition fraction: {entry.short_partition_fraction:g}"
        )
        if entry.quick_params:
            quick = ", ".join(
                f"`{k}={v!r}`" for k, v in entry.quick_params.items()
            )
            lines.append(f"- quick-scale overrides: {quick}")
        lines.append("")
        if entry.params:
            lines.extend(_param_rows(entry.params))
            lines.append("")
    return "\n".join(lines)


def write_docs(output: Path) -> list[Path]:
    output.mkdir(parents=True, exist_ok=True)
    written = []
    for filename, content in (
        ("policies.md", render_policy_docs()),
        ("workloads.md", render_workload_docs()),
    ):
        path = output / filename
        path.write_text(content)
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.workloads",
        description="List and summarize the registered workload zoo.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="one line per registered workload (default)")
    show = sub.add_parser("show", help="materialize one workload and summarize it")
    show.add_argument("name", help="registered workload name")
    show.add_argument("--seed", type=int, default=0)
    show.add_argument(
        "--quick", action="store_true", help="use the registered quick scale"
    )
    show.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="param override (repeatable)",
    )
    docs = sub.add_parser(
        "docs", help="render the policy/workload registry doc pages"
    )
    docs.add_argument(
        "--output",
        type=Path,
        default=Path("benchmarks/results/registry_docs"),
        help="directory the markdown pages are written to",
    )
    args = parser.parse_args(argv)
    try:
        if args.command == "list" or args.command is None:
            sys.stdout.write(cmd_list())
        elif args.command == "show":
            sys.stdout.write(
                cmd_show(
                    args.name,
                    args.quick,
                    args.seed,
                    _parse_overrides(args.overrides),
                )
            )
        elif args.command == "docs":
            for path in write_docs(args.output):
                print(f"wrote {path}")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
