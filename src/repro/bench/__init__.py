"""Perf harness for the simulation core (``python -m repro.bench``).

Three measurements, all written to ``BENCH_core.json`` at the repo root
so every PR leaves a tracked trajectory instead of anecdotes:

* **events/sec** — the canonical mixed workload (the Google-like trace at
  the high-load cluster size) run through Hawk (centralized placement +
  batch probing + work stealing) and Sparrow (pure batch probing).  The
  numerator is the engine's *logical* event count (``events_fired``:
  message deliveries, round-trip legs, task completions), which is
  invariant under transport-level batching, so the metric stays
  comparable across core rewrites.  Wall time is best-of-``repeats``.
* **stealing events/sec** — Hawk on the Section 2.3 motivation workload
  at the scenario's recommended cluster size: long tasks occupy the
  cluster while streams of short jobs land, so idle workers spend the
  run in work-stealing rounds.  Stealing is the remaining hot loop
  (ROADMAP); tracking it as its own bench point means a stealing-path
  regression cannot hide inside the mixed-workload number.
* **sweep wall-times** — a two-point Figure-5 sweep through a fresh
  :class:`~repro.experiments.parallel.SweepExecutor` with an isolated
  disk cache: cold (every run executed) and warm (every run served from
  the disk tier), the repeated-figure-regeneration case.

A fourth, mode-independent measurement lives in the ``scale`` section
(``--scale``): the 10k-worker Figure 5 point (Hawk + Sparrow on the
densified Google trace) plus two microbenches: a steal round isolating
the victim-selection loop at cluster scale, and a cached-result read
(``DiskCache.load`` plus the fig05_scale fold of a 3,000-job result).
``--scale --quick`` runs only the microbenches, cheap enough for CI
smoke.

The engine runs the bench times are one table, :data:`POINTS`.  The
bench records only their timings: what a run determines (events,
stealing counts, heap pops) is pinned by the run ledger's ``bench``
rows (:mod:`repro.experiments.ledger`), built from the same table.

The JSON file keeps one section per mode (``quick``/``full``/``scale``)
and merges on write, so a quick CI run never clobbers the committed
full-scale numbers.  ``--check`` evaluates the section's rows of
:data:`CORE`'s declarative gate table.  That harness half (:func:`best_of`,
:class:`Gate`, :func:`check`, :func:`merge_into` and the CLI tail
:func:`finish`) serves ``python -m repro.service.bench`` too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import tempfile
import time
from collections.abc import Callable, Mapping
from functools import partial
from pathlib import Path
from typing import Any, Literal, NamedTuple, TypeVar

from repro.cluster.job import JobClass
from repro.cluster.records import JobRecord, RunResult, UtilizationSample
from repro.core.errors import ReproError
from repro.experiments.config import RunSpec, build_engine, high_load_size
from repro.metrics import compare_runs
from repro.workloads.registry import WorkloadSpec, at_scale
from repro.workloads.spec import Trace

T = TypeVar("T")

#: ``--check`` fails when a gated rate drops below committed/this, or a
#: gated cost rises above committed*this.
REGRESSION_FACTOR = 1.5


# -- the harness shared by every BENCH file --------------------------------
class BenchFileError(ReproError):
    """A BENCH file exists but does not hold a JSON object."""


class Gate(NamedTuple):
    """One ``--check`` row: a dotted key path into a section and its bound.

    ``*`` in the path matches every key at that level of either side.
    Kinds: ``floor`` (measured >= committed / factor), ``ceiling``
    (measured <= committed * factor) and ``true``.  A row whose first
    key the fresh payload lacks is skipped: that mode does not measure
    it (``--scale --quick`` runs no engine).
    """

    label: str
    path: str
    kind: Literal["floor", "ceiling", "true"]


class Harness(NamedTuple):
    """One BENCH file: its name, header, regression factor and gate table."""

    filename: str
    workload: str
    factor: float
    gates: Mapping[str, tuple[Gate, ...]]


def best_of(repeats: int, prepare: Callable[[], Callable[[], T]]) -> tuple[float, T]:
    """Best wall time of ``repeats`` runs, and the last run's result.

    Each run times the thunk an untimed ``prepare()`` returns, which
    keeps engine construction out of the measurement.
    """
    best = float("inf")
    for _ in range(repeats):
        run = prepare()
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def read_bench(path: Path) -> dict[str, Any]:
    """The BENCH file at ``path`` (``{}`` when absent).

    A file that does not parse to a JSON object raises
    :class:`BenchFileError`, so no check runs against it and no merge
    rewrites it.
    """
    if not path.is_file():
        return {}
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchFileError(f"cannot read BENCH file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise BenchFileError(f"BENCH file {path} is not a JSON object")
    return data


def merge_into(
    harness: Harness, path: Path, section: str, payload: dict[str, Any]
) -> dict[str, Any]:
    """Merge ``payload`` into one section of the file, keeping the rest.

    Section keys the payload lacks survive: the committed references and,
    under ``--scale --quick``, the 10k-point engine numbers.
    """
    data = read_bench(path)
    data.setdefault("schema", 1)
    data.setdefault("workload", harness.workload)
    data[section] = {**data.get(section, {}), **payload}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def _children(node: Any) -> dict[str, Any]:
    return node if isinstance(node, dict) else {}


def _matches(path: str, fresh: Any, committed: Any) -> list[tuple[str, Any, Any]]:
    """``(concrete path, measured, committed)`` for every match of ``path``."""
    found = [("", fresh, committed)]
    for key in path.split("."):
        found = [
            (f"{at}.{k}" if at else k, _children(m).get(k), _children(c).get(k))
            for at, m, c in found
            for k in (sorted({*_children(m), *_children(c)}) if key == "*" else [key])
        ]
    return found


def _verdict(gate: Gate, measured: Any, committed: Any, factor: float) -> str | None:
    """Why ``measured`` fails ``gate``, or ``None`` when it passes."""
    if measured is None:
        return "not measured"
    if gate.kind == "true":
        ok, want = measured is True, "true"
    elif committed is None:
        return "no committed value"
    elif gate.kind == "floor":
        ok = measured >= committed / factor
        want = f">= committed {committed} / {factor}"
    else:
        ok = measured <= committed * factor
        want = f"<= committed {committed} * {factor}"
    return None if ok else f"measured {measured}, want {want}"


def check(
    harness: Harness, baseline_path: Path, section: str, fresh: dict[str, Any]
) -> list[str]:
    """Evaluate ``section``'s gate rows on a fresh payload; return failures."""
    if not baseline_path.is_file():
        return [f"no baseline file at {baseline_path}"]
    committed = read_bench(baseline_path).get(section)
    if not committed:
        return [f"baseline {baseline_path} has no '{section}' section"]
    failures = []
    for gate in harness.gates[section]:
        if gate.path.split(".")[0] not in fresh:
            continue
        for at, measured, reference in _matches(gate.path, fresh, committed):
            reason = _verdict(gate, measured, reference, harness.factor)
            if reason is not None:
                failures.append(f"{gate.label} regression at {at}: {reason}")
    return failures


def bench_parser(
    harness: Harness, prog: str, description: str
) -> argparse.ArgumentParser:
    """A parser holding the flags every BENCH CLI shares."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--quick", action="store_true", help="CI smoke size")
    parser.add_argument(
        "--output",
        type=Path,
        help=f"JSON file to merge results into (default: repo-root {harness.filename})",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="print results, write no file"
    )
    parser.add_argument(
        "--check",
        type=Path,
        nargs="?",
        default=False,
        metavar="BASELINE",
        help="exit 1 when a gate row fails (default baseline: the output file)",
    )
    return parser


def finish(
    harness: Harness, args: argparse.Namespace, section: str, payload: dict[str, Any]
) -> int:
    """The CLI tail: print, gate under ``--check``, merge unless ``--no-write``."""
    # The default output sits at the repo root for a src/ checkout.
    repo = Path(__file__).resolve().parents[3]
    root = repo if (repo / "benchmarks").is_dir() else Path.cwd()
    output = args.output or root / harness.filename
    print(json.dumps({section: payload}, indent=2, sort_keys=True))
    try:
        if args.check is not False:
            baseline = args.check or output
            failures = check(harness, baseline, section, payload)
            for failure in failures:
                print(f"PERF CHECK FAILED: {failure}", file=sys.stderr)
            if failures:
                return 1
            print(f"perf check ok: every '{section}' gate holds (baseline {baseline})")
        if not args.no_write:
            merge_into(harness, output, section, payload)
            print(f"wrote {output}")
    except BenchFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# -- the core workload ----------------------------------------------------
#: The two policies the engine benches compare.
POLICIES = ("hawk", "sparrow")


class Point(NamedTuple):
    """An engine run set the bench times: a workload's seed-0 trace at one
    cluster size, under each of ``policies``."""

    workload: str
    #: ``None``: the workload's registered quick scale.
    params: Mapping[str, Any] | None
    #: ``None``: :func:`~repro.experiments.config.high_load_size` of the trace.
    n_workers: int | None
    policies: tuple[str, ...]

    def runs(self) -> tuple[Trace, dict[str, RunSpec]]:
        """The trace and each policy's spec."""
        if self.params is None:
            workload = at_scale(self.workload, "quick")
        else:
            workload = WorkloadSpec(self.workload, self.params)
        trace = workload.trace(0)
        n_workers = self.n_workers or high_load_size(trace)
        return trace, {
            name: RunSpec.for_workload(workload, name, n_workers)
            for name in self.policies
        }


#: Every engine run the bench times, by name.  The run ledger pins what
#: each run determines in one ``bench <point> <policy>`` row.  The
#: stealing points run Hawk on the Section 2.3 motivation scenario at its
#: recommended size, ``MotivationConfig().scaled(scale).n_servers``.
POINTS = {
    "quick.events": Point("google", None, None, POLICIES),
    "full.events": Point("google", {}, None, POLICIES),
    "quick.stealing": Point("motivation", {"scale": 0.02}, 300, ("hawk",)),
    "full.stealing": Point("motivation", {"scale": 0.1}, 1_500, ("hawk",)),
    "scale": Point("google-scale10k", {}, 10_000, POLICIES),
}


def _time_point(
    name: str, repeats: int
) -> tuple[int, dict[str, dict], float, int]:
    """Time each policy's run at ``POINTS[name]``, best-of-``repeats``.

    Returns the cluster size, each policy's best wall and events/sec,
    and the best walls and events summed over the policies.
    """
    trace, specs = POINTS[name].runs()
    entries = {}
    total_best = 0.0
    total_events = 0
    for policy, spec in specs.items():
        best, result = best_of(repeats, lambda: partial(build_engine(spec).run, trace))
        entries[policy] = {
            "wall_s": round(best, 4),
            "events_per_sec": round(result.events_fired / best),
        }
        total_best += best
        total_events += result.events_fired
    # Every policy at a point runs on the same cluster size.
    return spec.n_workers, entries, total_best, total_events


def bench_events(scale: str, repeats: int = 3) -> dict:
    """Events/sec of the canonical mixed workload, best-of-``repeats``."""
    n_workers, entries, best, events = _time_point(f"{scale}.events", repeats)
    return {
        "trace": {"scale": scale},
        "policies": {
            name: {"n_workers": n_workers, **entry} for name, entry in entries.items()
        },
        "events_per_sec": round(events / best),
    }


def bench_stealing(scale: str, repeats: int = 3) -> dict:
    """Events/sec of a stealing-heavy Hawk run, best-of-``repeats``.

    The Section 2.3 motivation scenario at the paper's recommended
    cluster size: 95% of jobs are 100-task shorts landing while 1000-task
    long jobs occupy the general partition, so short-partition workers go
    idle and drive continuous stealing rounds.
    """
    name = f"{scale}.stealing"
    n_workers, entries, _, _ = _time_point(name, repeats)
    return {
        "workload": {"name": "motivation", **(POINTS[name].params or {})},
        "n_workers": n_workers,
        **entries["hawk"],
    }


def bench_steal_rounds(n_workers: int = 10_000, rounds: int = 200_000) -> dict:
    """Victim-selection cost of a failed stealing round at cluster scale.

    Builds a Hawk engine at ``n_workers`` with every queue empty, forces
    the policy past its parked fast-exit, and times ``rounds`` stealing
    rounds from a short-partition thief.  Every round probes ``cap``
    victims and fails — the overwhelmingly common round in a
    stealing-heavy run — so this isolates the flat-bitmap victim loop
    that the mixed-workload numbers dilute with engine work.  Cheap
    enough for CI quick mode (no trace is simulated).
    """
    spec = RunSpec.for_workload(WorkloadSpec("google"), "hawk", n_workers)
    engine = build_engine(spec)
    policy = engine.stealing
    cluster = engine.cluster
    # A nonzero tally is the round's entry condition; leaving every flag
    # and queue empty makes each round a representative failure.
    cluster.steal_hint_count = 1
    thief = cluster.workers[-1]
    attempt = policy._attempt_round
    start = time.perf_counter()
    for _ in range(rounds):
        attempt(thief)
    elapsed = time.perf_counter() - start
    return {
        "n_workers": n_workers,
        "rounds": rounds,
        "us_per_round": round(elapsed / rounds * 1e6, 3),
        "rounds_per_sec": round(rounds / elapsed),
    }


def _synthetic_run(n_jobs: int, n_workers: int, seed: int = 0) -> RunResult:
    """A RunResult shaped like the 10k-worker scale point, without a run.

    ``n_jobs`` records, one in ten long (the Google trace's mix), and
    one utilization sample per ten jobs (the scale point has 287 for its
    3,000), all drawn from a seeded stream so every call builds the same
    result.
    """
    rng = random.Random(seed)
    jobs = []
    for job_id in range(n_jobs):
        job_class = JobClass.LONG if job_id % 10 == 0 else JobClass.SHORT
        submit = job_id * 3.2
        runtime = rng.uniform(50.0, 5_000.0)
        tasks = rng.randint(1, 200)
        jobs.append(
            JobRecord(
                job_id=job_id,
                submit_time=submit,
                completion_time=submit + runtime,
                num_tasks=tasks,
                true_mean_task_duration=runtime / 2,
                estimated_task_duration=runtime / 2,
                task_seconds=tasks * runtime / 2,
                scheduled_class=job_class,
                true_class=job_class,
                stolen_tasks=rng.randint(0, 3),
            )
        )
    samples = tuple(
        UtilizationSample(100.0 * i, rng.randint(0, n_workers), n_workers)
        for i in range(n_jobs // 10)
    )
    return RunResult(
        scheduler_name="hawk",
        n_workers=n_workers,
        jobs=tuple(jobs),
        utilization=samples,
    )


def bench_cache_read(n_jobs: int = 3_000, reads: int = 50, repeats: int = 3) -> dict:
    """Warm-cache read path: one cached run loaded and folded, per read.

    Stores a synthetic ``n_jobs``-record result (:func:`_synthetic_run`)
    in a fresh :class:`~repro.experiments.parallel.DiskCache`, then
    times ``reads`` reads, each a ``DiskCache.load`` plus the fig05_scale
    row's fold (``compare_runs`` for SHORT and LONG against the stored
    result, and ``median_utilization``).  Every figure re-render from a
    warm cache is this loop.  Best-of-``repeats``; cheap enough for CI
    quick mode (no trace is simulated).
    """
    from repro.experiments.parallel import DiskCache

    result = _synthetic_run(n_jobs, n_workers=10_000)
    key = "0" * 40
    with tempfile.TemporaryDirectory() as tmp:
        cache = DiskCache(Path(tmp))

        def read_all() -> None:
            for _ in range(reads):
                loaded = cache.load(key)
                compare_runs(loaded, result, JobClass.SHORT)
                compare_runs(loaded, result, JobClass.LONG)
                loaded.median_utilization()

        cache.store(key, result)
        best, _ = best_of(repeats, lambda: read_all)
        blob_bytes = cache.path(key).stat().st_size
    return {
        "jobs": n_jobs,
        "reads": reads,
        "blob_bytes": blob_bytes,
        "ms_per_read": round(best / reads * 1e3, 3),
    }


def bench_scale(repeats: int = 3) -> dict:
    """The 10k-worker Figure 5 scale point, best-of-``repeats``.

    Runs the exact engine configurations behind
    ``benchmarks/results/fig05_scale10k.txt`` (Hawk and Sparrow on the
    densified Google trace at 10,000 workers) and records their wall
    times, plus the :func:`bench_steal_rounds` and
    :func:`bench_cache_read` microbenches.  The section's ``pre_pr``
    subkey preserves the same harness's numbers measured at the
    pre-flat-array core for the speedup trajectory.
    """
    n_workers, entries, best, _ = _time_point("scale", repeats)
    return {
        "workload": {"name": POINTS["scale"].workload},
        "n_workers": n_workers,
        "policies": entries,
        "total_wall_s": round(best, 4),
        "steal_round": bench_steal_rounds(),
        "cache_read": bench_cache_read(),
    }


def bench_sweep(scale: str) -> dict:
    """Cold vs warm wall time of a two-point fig05 sweep (isolated caches)."""
    # Imported here: experiments.parallel spins executor state on import.
    from repro.experiments import fig05_google
    from repro.experiments.parallel import DiskCache, SweepExecutor, set_executor

    targets = (1.0, 0.5)
    at_scale("google", scale).trace(0)  # exclude trace generation from both timings
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        timings = {}
        for label in ("cold", "warm"):
            executor = SweepExecutor(disk_cache=DiskCache(Path(tmp)))
            previous = set_executor(executor)
            try:
                start = time.perf_counter()
                fig05_google.run(scale, utilization_targets=targets)
                timings[f"{label}_s"] = round(time.perf_counter() - start, 4)
            finally:
                set_executor(previous)
                executor.close()
        return {"targets": list(targets), **timings}


def run_bench(quick: bool = False, repeats: int | None = None) -> dict:
    scale = "quick" if quick else "full"
    if repeats is None:
        repeats = 5 if quick else 3
    return {
        "scale": scale,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "events": bench_events(scale, repeats=repeats),
        "stealing": bench_stealing(scale, repeats=repeats),
        "sweep": bench_sweep(scale),
    }


_RUN_GATES = (
    Gate("events/sec", "events.events_per_sec", "floor"),
    Gate("stealing events/sec", "stealing.events_per_sec", "floor"),
)

#: ``BENCH_core.json`` and its ``--check`` gate table, one row set per section.
CORE = Harness(
    filename="BENCH_core.json",
    workload="google-like trace at the high-load cluster size; hawk + sparrow",
    factor=REGRESSION_FACTOR,
    gates={
        "quick": _RUN_GATES,
        "full": _RUN_GATES,
        "scale": (
            Gate("steal rounds/sec", "steal_round.rounds_per_sec", "floor"),
            Gate("cache read", "cache_read.ms_per_read", "ceiling"),
            Gate("scale point events/sec", "policies.*.events_per_sec", "floor"),
        ),
    },
)


def _at_least_one(text: str) -> int:
    """``--repeats``: an integer of at least 1 (argparse's usage error else)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = bench_parser(
        CORE,
        "python -m repro.bench",
        "Measure core simulator throughput and sweep wall-times.",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="the 10k-worker tier; with --quick only its microbenches (CI smoke)",
    )
    parser.add_argument(
        "--repeats", type=_at_least_one, help="timing repeats (best-of)"
    )
    args = parser.parse_args(argv)
    if not args.scale:
        section = "quick" if args.quick else "full"
        payload = run_bench(quick=args.quick, repeats=args.repeats)
    elif args.quick:
        section = "scale"
        payload = {
            "steal_round": bench_steal_rounds(),
            "cache_read": bench_cache_read(),
        }
    else:
        section = "scale"
        payload = bench_scale(repeats=args.repeats or 3)
    return finish(CORE, args, section, payload)
