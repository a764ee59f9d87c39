"""The run ledger: every pinned simulator result in one generated file.

``benchmarks/results/run_ledger.txt`` records what a fresh computation
gives for four kinds of entry, one line each:

* ``run <workload> <seed> <policy> <plain|faulted>`` — one run of a
  built-in workload at its quick scale, seeds 0-1, under every
  registered policy at ``high_load_size``, without faults and under
  ``fig_faults.plan_for(0.3, horizon)``.  Its columns: the sha256 of
  ``repr(RunResult)``, ``events_fired``, ``end_time``, the four
  ``StealingStats`` counts, the event heap's pops, the lifecycle
  stream's ``count:digest`` and the trace's ``content_digest()``;
* ``bench <point> <policy>`` — one engine run that the core bench
  times, for every point of :data:`repro.bench.POINTS` and each of its
  policies, with the ``run`` columns.  The bench records only timings,
  so these rows are the one pin of its events and stealing counts;
* ``trace <workload> <seed>`` — the quick trace's ``content_digest()``
  for seeds 0-2;
* ``render <figure>`` — the sha256 of a replicated (``n_seeds=2``)
  quick render of the fixed-size comparison drivers.

Runs are built and run as :func:`~repro.experiments.config.execute`
does, with a lifecycle sink attached that also folds the stream (a run
that leaves its heap undrained, or whose folded stream differs from its
``RunResult`` but for the scheduler's name, fails), and renders go
through a fresh serial executor without a disk tier, so no cache is
ever read.  The command line::

    python -m repro.experiments.ledger            # check every entry
    python -m repro.experiments.ledger --write    # rewrite the file

The check names every moved entry and column, and every failed run,
and exits 1.  ``--write`` prints what it changed, and refuses when the
result columns (``result``, ``events``, ``end_time``, ``stealing``) of
a ``run`` or ``bench`` row moved on an unchanged trace while the file's
``cache_version`` still equals
:data:`~repro.experiments.parallel.CACHE_VERSION`: a cached result would
then disagree with a fresh one, so the results version must be bumped
first.  Heap pops, streams, traces and renders rewrite freely.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import sys
from itertools import product
from pathlib import Path

import repro.core.simulation as simulation
from repro.bench import POINTS
from repro.core.errors import ConfigurationError, SimulationError
from repro.experiments import (
    fig07_ablation,
    fig12_13_cutoff,
    fig14_misestimation,
    fig15_stealing_cap,
    fig_batch_size,
)
from repro.experiments.config import RunSpec, high_load_size
from repro.experiments.fig_faults import plan_for
from repro.experiments.parallel import CACHE_VERSION, SweepExecutor, set_executor
from repro.schedulers import registry as policy_registry
from repro.schedulers.registry import build_engine
from repro.service.replay import RunFold
from repro.workloads import registry as workload_registry
from repro.workloads.registry import quick_spec
from repro.workloads.spec import Trace

PATH = Path(__file__).resolve().parents[3] / "benchmarks/results/run_ledger.txt"

SEEDS = (0, 1)
TRACE_SEEDS = (0, 1, 2)
FAULT_LEVELS = ("plain", "faulted")
#: Crash fraction of a ``faulted`` run.
CRASH_FRACTION = 0.3

#: Key fields and value columns of each entry kind.
KEYS = {
    "run": ("workload", "seed", "policy", "faults"),
    "bench": ("point", "policy"),
    "trace": ("workload", "seed"),
    "render": ("figure",),
}
RUN_COLUMNS = (
    "result",
    "events",
    "end_time",
    "stealing",
    "heap_pops",
    "stream",
    "trace",
)
COLUMNS = {
    "run": RUN_COLUMNS,
    "bench": RUN_COLUMNS,
    "trace": ("digest",),
    "render": ("sha256",),
}
#: The leading run columns that a ``RunResult`` determines.
RESULT_COLUMNS = RUN_COLUMNS[:4]
TRACE_COLUMN = RUN_COLUMNS.index("trace")
#: The ``RunResult`` fields a run's folded stream must reproduce: all but
#: ``scheduler_name``, which a fold names after the service.
FOLDED_FIELDS = (
    "n_workers",
    "jobs",
    "utilization",
    "stealing",
    "events_fired",
    "end_time",
)

#: The replicated renders, at quick scale with short axes.  They cover
#: the cells, CI bands, p-values and notes that the committed
#: single-seed figures do not.
RENDERS = {
    "fig07": lambda: fig07_ablation.run("quick", n_seeds=2),
    "fig12_13": lambda: fig12_13_cutoff.run(
        "quick", cutoffs=(750.0, 1500.0), n_seeds=2
    ),
    "fig14": lambda: fig14_misestimation.run(
        "quick", ranges=((0.1, 1.9), (0.5, 1.5)), n_seeds=2
    ),
    "fig15": lambda: fig15_stealing_cap.run("quick", caps=(1, 10), n_seeds=2),
    "fig_batch_size": lambda: fig_batch_size.run(
        "quick", batch_sizes=(1, 16), n_seeds=2
    ),
}

#: An entry's kind and key fields, e.g. ``("run", "google", "0", "hawk",
#: "plain")``, mapped to its column values, all as written.
Key = tuple[str, ...]
Entries = dict[Key, tuple[str, ...]]


def policies() -> list[str]:
    """Every built-in registered policy."""
    return [
        name
        for name in policy_registry.registered_names()
        if policy_registry.policy_entry(name).builder.__module__.startswith(
            "repro."
        )
    ]


def workloads() -> list[str]:
    """Every built-in registered workload."""
    return [
        name
        for name in workload_registry.registered_names()
        if workload_registry.workload_entry(name).builder.__module__.startswith(
            "repro.workloads."
        )
    ]


def all_keys() -> list[Key]:
    """Every entry the ledger holds, in file order."""
    runs = product(workloads(), SEEDS, policies(), FAULT_LEVELS)
    traces = product(workloads(), TRACE_SEEDS)
    return [
        *(("run", w, str(seed), p, faults) for w, seed, p, faults in runs),
        *(("bench", name, p) for name, point in POINTS.items() for p in point.policies),
        *(("trace", w, str(seed)) for w, seed in traces),
        *(("render", name) for name in RENDERS),
    ]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CountingHeapq:
    """Stand-in for the simulation module's ``heapq`` that counts traffic."""

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0

    def heappush(self, heap, item) -> None:
        self.pushes += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


class StreamDigest:
    """A lifecycle sink folding the stream into ``count:digest``, and
    into a :class:`~repro.service.replay.RunFold` (``fold``).

    The digest is the first 16 hex digits of the sha256 over the
    newline-joined ``repr`` of each event tuple, its payload as sorted
    JSON.
    """

    def __init__(self) -> None:
        self.count = 0
        self._sha = hashlib.sha256()
        self.fold = RunFold()

    def __call__(self, kind, vtime, job_id, task_index, worker_id, payload) -> None:
        if self.count:
            self._sha.update(b"\n")
        payload = payload or {}
        self.count += 1
        self.fold.step(self.count, kind, vtime, 0.0, job_id, payload)
        text = json.dumps(payload, sort_keys=True)
        event = (kind, vtime, job_id, task_index, worker_id, text)
        self._sha.update(repr(event).encode())

    def token(self) -> str:
        return f"{self.count}:{self._sha.hexdigest()[:16]}"


def run_entry(workload: str, seed: int, policy: str, faults: str) -> tuple[str, ...]:
    spec = quick_spec(workload)
    trace = spec.trace(seed)
    plan = plan_for(CRASH_FRACTION, trace.horizon) if faults == "faulted" else None
    run_spec = RunSpec.for_workload(
        spec, policy, high_load_size(trace), seed, faults=plan
    )
    return run_columns(f"run {workload} {seed} {policy} {faults}", run_spec, trace)


def bench_entry(point: str, policy: str) -> tuple[str, ...]:
    trace, specs = POINTS[point].runs()
    return run_columns(f"bench {point} {policy}", specs[policy], trace)


def run_columns(name: str, run_spec: RunSpec, trace: Trace) -> tuple[str, ...]:
    """The run columns of ``run_spec`` on ``trace``; ``name`` heads the
    :class:`SimulationError` of a run that fails a check."""
    stream = StreamDigest()
    counting = CountingHeapq()
    previous = simulation.heapq
    setattr(simulation, "heapq", counting)
    try:
        result = build_engine(run_spec, sink=stream).run(trace)
    finally:
        setattr(simulation, "heapq", previous)
    if counting.pushes != counting.pops:
        raise SimulationError(
            f"{name}: the run left its heap undrained ({counting.pushes} "
            f"pushes, {counting.pops} pops)"
        )
    folded = stream.fold.result(run_spec)
    moved = [f for f in FOLDED_FIELDS if getattr(folded, f) != getattr(result, f)]
    if moved:
        raise SimulationError(
            f"{name}: its folded lifecycle stream differs in {', '.join(moved)}"
        )
    s = result.stealing
    return (
        sha256(repr(result)),
        str(result.events_fired),
        repr(result.end_time),
        f"{s.rounds},{s.successful_rounds},{s.victims_probed},{s.entries_stolen}",
        str(counting.pops),
        stream.token(),
        trace.content_digest(),
    )


def render_entry(figure: str) -> tuple[str, ...]:
    executor = SweepExecutor(max_workers=1, disk_cache=None)
    previous = set_executor(executor)
    try:
        rendered = RENDERS[figure]().render()
    finally:
        set_executor(previous)
        executor.close()
    return (sha256(rendered),)


def compute(key: Key) -> tuple[str, ...]:
    """One entry, computed fresh."""
    kind, *fields = key
    if kind == "run":
        workload, seed, policy, faults = fields
        return run_entry(workload, int(seed), policy, faults)
    if kind == "bench":
        return bench_entry(*fields)
    if kind == "trace":
        workload, seed = fields
        return (quick_spec(workload).trace(int(seed)).content_digest(),)
    return render_entry(*fields)


def load(path: Path = PATH) -> tuple[int, Entries]:
    """The ``cache_version`` header and the entries of a ledger file."""
    version = None
    entries: Entries = {}
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        kind = tokens[0]
        width = 1 + len(KEYS.get(kind, ()))
        if kind == "cache_version" and len(tokens) == 2 and tokens[1].isdigit():
            version = int(tokens[1])
        elif kind in KEYS and len(tokens) == width + len(COLUMNS[kind]):
            entries[tuple(tokens[:width])] = tuple(tokens[width:])
        else:
            raise ConfigurationError(f"{path}:{lineno}: malformed ledger line")
    if version is None:
        raise ConfigurationError(f"{path}: no cache_version header")
    return version, entries


def render(entries: Entries) -> str:
    """The ledger file for ``entries``, headed by today's ``CACHE_VERSION``."""
    lines = [
        "# The run ledger, generated by `python -m repro.experiments.ledger --write`",
        "# and checked by the same command without --write (see its docstring).",
        f"cache_version {CACHE_VERSION}",
    ]
    kind = None
    for key, values in entries.items():
        if key[0] != kind:
            kind = key[0]
            lines.append("# " + " ".join((kind, *KEYS[kind], *COLUMNS[kind])))
        lines.append(" ".join((*key, *values)))
    return "\n".join(lines) + "\n"


def diff(old: Entries, new: Entries) -> list[str]:
    """One line per entry that differs: gone, new, or its moved columns."""
    lines = []
    for key in [*old, *(key for key in new if key not in old)]:
        name = " ".join(key)
        if key not in new:
            lines.append(f"{name}: gone")
        elif key not in old:
            lines.append(f"{name}: new")
        else:
            moved = [
                f"{column} {was} -> {now}"
                for column, was, now in zip(COLUMNS[key[0]], old[key], new[key])
                if was != now
            ]
            if moved:
                lines.append(f"{name}: " + ", ".join(moved))
    return lines


def refusals(version: int, old: Entries, new: Entries) -> list[str]:
    """The runs and bench rows whose result moved on an unchanged trace,
    unless the results version has been bumped since ``old`` was written."""
    if version != CACHE_VERSION:
        return []
    n = len(RESULT_COLUMNS)
    return [
        " ".join(key)
        for key, values in new.items()
        if key[0] in ("run", "bench")
        and key in old
        and old[key][TRACE_COLUMN] == values[TRACE_COLUMN]
        and old[key][:n] != values[:n]
    ]


def check(keys: list[Key] | None = None, path: Path = PATH) -> list[str]:
    """Recompute ``keys`` (default: every entry) against the file.

    Returns one line per problem; an empty list means the file is fresh.
    A run that fails (:class:`SimulationError`) is a problem of its own.
    """
    version, committed = load(path)
    problems = []
    if version != CACHE_VERSION:
        problems.append(
            f"cache_version {version} in {path.name}, but CACHE_VERSION is "
            f"{CACHE_VERSION}: rewrite it with --write"
        )
    if keys is None:
        keys, old = all_keys(), committed
    else:
        old = {key: committed[key] for key in keys if key in committed}
    fresh: Entries = {}
    for key in keys:
        try:
            fresh[key] = compute(key)
        except SimulationError as exc:
            problems.append(str(exc))
            old.pop(key, None)
    problems.extend(diff(old, fresh))
    return problems


def write(entries: Entries, path: Path = PATH) -> list[str]:
    """Write ``entries`` to ``path``; returns what changed.

    Raises :class:`ConfigurationError`, naming the runs, when a result
    moved on an unchanged trace without a ``CACHE_VERSION`` bump.
    """
    version, old = load(path) if path.exists() else (CACHE_VERSION, {})
    refused = refusals(version, old, entries)
    if refused:
        raise ConfigurationError(
            f"{len(refused)} run(s) changed result with the same trace while "
            f"CACHE_VERSION is still {CACHE_VERSION}; bump it in "
            "repro/experiments/parallel.py before rewriting the ledger:\n  "
            + "\n  ".join(refused)
        )
    changes = diff(old, entries)
    if version != CACHE_VERSION:
        changes.insert(0, f"cache_version {version} -> {CACHE_VERSION}")
    path.write_text(render(entries), encoding="utf-8")
    return changes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.ledger",
        description="Check the run ledger against fresh runs, or rewrite it.",
    )
    parser.add_argument(
        "--write", action="store_true", help=f"rewrite {PATH.name}"
    )
    args = parser.parse_args(argv)
    try:
        if args.write:
            lines = write({key: compute(key) for key in all_keys()})
        else:
            lines = check()
    except (ConfigurationError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    if args.write:
        print(f"wrote {PATH} ({len(lines)} change(s))")
        return 0
    print(f"{PATH.name}: {len(lines)} problem(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
