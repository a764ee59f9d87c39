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
  regression cannot hide inside the mixed-workload number, and
  ``--check`` gates it like the canonical events/sec.
* **sweep wall-times** — a two-point Figure-5 sweep through a fresh
  :class:`~repro.experiments.parallel.SweepExecutor` with an isolated
  disk cache: cold (every run executed) and warm (every run served from
  the disk tier), the repeated-figure-regeneration case.
* **sweep_stream** — chained batch barriers vs one continuous
  ``run_stream`` on a skewed synthetic grid (one deliberately slow point
  ahead of many fast ones, sleep-based so the comparison isolates
  orchestration, not simulation).  Joining every batch serializes the
  whole chain behind the slow point; the stream keeps the second worker
  fed across batch boundaries.  ``--check`` fails when the measured
  speedup drops below :data:`STREAM_SPEEDUP_FLOOR`.

A fourth, mode-independent measurement lives in the ``scale`` section
(``--scale``): the 10k-worker Figure 5 point (Hawk + Sparrow on the
densified Google trace) plus two microbenches: a steal round isolating
the victim-selection loop at cluster scale, and a cached-result read
(``DiskCache.load`` plus the fig05_scale fold of a 3,000-job result).
``--scale --quick`` runs only the microbenches, cheap enough for CI
smoke.

The JSON file keeps one section per mode (``quick``/``full``) and merges
on write, so a quick CI run never clobbers the committed full-scale
numbers.  ``--check`` compares a fresh run against the committed section
of the same mode and fails on a >1.5x events/sec regression.
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
from pathlib import Path

from repro.cluster.job import JobClass
from repro.cluster.records import JobRecord, RunResult, UtilizationSample
from repro.experiments.config import RunSpec, build_engine, high_load_size
from repro.experiments.traces import (
    google_cutoff,
    google_short_fraction,
    google_workload,
)
from repro.metrics import compare_runs
from repro.workloads.motivation import MotivationConfig
from repro.workloads.registry import WorkloadSpec
from repro.workloads.spec import Trace

#: Fail ``--check`` when fresh events/sec drop below committed/this.
REGRESSION_FACTOR = 1.5

#: Fail ``--check`` when the streaming executor's measured advantage over
#: chained batch barriers drops below this on the skewed grid.
STREAM_SPEEDUP_FLOOR = 1.3

#: Default output path: ``BENCH_core.json`` at the repo root (next to the
#: ``benchmarks/`` directory) for a src/ checkout, cwd otherwise.
def default_output() -> Path:
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "BENCH_core.json"
    return Path.cwd() / "BENCH_core.json"


def _specs(trace: Trace) -> dict[str, RunSpec]:
    n = high_load_size(trace)
    cutoff = google_cutoff()
    return {
        "hawk": RunSpec(
            scheduler="hawk",
            n_workers=n,
            cutoff=cutoff,
            short_partition_fraction=google_short_fraction(),
        ),
        "sparrow": RunSpec(scheduler="sparrow", n_workers=n, cutoff=cutoff),
    }


def bench_events(scale: str, repeats: int = 3) -> dict:
    """Events/sec of the canonical mixed workload, best-of-``repeats``."""
    trace = google_workload(scale).trace(0)
    out: dict = {
        "trace": {
            "scale": scale,
            "jobs": len(trace),
            "tasks": trace.total_tasks,
        },
        "policies": {},
    }
    total_events = 0
    total_best = 0.0
    for name, spec in _specs(trace).items():
        best = float("inf")
        events = 0
        for _ in range(repeats):
            engine = build_engine(spec)
            start = time.perf_counter()
            result = engine.run(trace)
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
            events = result.events_fired
        out["policies"][name] = {
            "n_workers": spec.n_workers,
            "events": events,
            "wall_s": round(best, 4),
            "events_per_sec": round(events / best),
        }
        total_events += events
        total_best += best
    out["events_per_sec"] = round(total_events / total_best)
    out["events"] = total_events
    return out


def bench_stealing(scale: str, repeats: int = 3) -> dict:
    """Events/sec of a stealing-heavy Hawk run, best-of-``repeats``.

    The Section 2.3 motivation scenario at the paper's recommended
    cluster size: 95% of jobs are 100-task shorts landing while 1000-task
    long jobs occupy the general partition, so short-partition workers go
    idle and drive continuous stealing rounds.  Returns the stealing
    counters alongside the timing so the deterministic half (rounds,
    entries stolen, logical events) can be pinned by tier-1.
    """
    motivation_scale = 0.1 if scale == "full" else 0.02
    workload = WorkloadSpec("motivation", {"scale": motivation_scale})
    trace = workload.trace(0)
    n_workers = MotivationConfig().scaled(motivation_scale).n_servers
    spec = RunSpec(
        scheduler="hawk",
        n_workers=n_workers,
        cutoff=workload.cutoff,
        short_partition_fraction=workload.short_partition_fraction,
    )
    best = float("inf")
    result = None
    for _ in range(repeats):
        engine = build_engine(spec)
        start = time.perf_counter()
        result = engine.run(trace)
        best = min(best, time.perf_counter() - start)
    return {
        "workload": {
            "name": "motivation",
            "scale": motivation_scale,
            "jobs": len(trace),
            "tasks": trace.total_tasks,
        },
        "n_workers": n_workers,
        "events": result.events_fired,
        "steal_rounds": result.stealing.rounds,
        "successful_rounds": result.stealing.successful_rounds,
        "entries_stolen": result.stealing.entries_stolen,
        "wall_s": round(best, 4),
        "events_per_sec": round(result.events_fired / best),
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
    spec = RunSpec(
        scheduler="hawk",
        n_workers=n_workers,
        cutoff=google_cutoff(),
        short_partition_fraction=google_short_fraction(),
    )
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
    best = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        cache = DiskCache(Path(tmp))
        try:
            cache.store(key, result)
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(reads):
                    loaded = cache.load(key)
                    compare_runs(loaded, result, JobClass.SHORT)
                    compare_runs(loaded, result, JobClass.LONG)
                    loaded.median_utilization()
                best = min(best, time.perf_counter() - start)
            blob_bytes = cache.path(key).stat().st_size
        finally:
            cache.index.close()
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
    densified Google trace at 10,000 workers) and records wall time,
    logical events, and the deterministic stealing counters, plus the
    :func:`bench_steal_rounds` and :func:`bench_cache_read` microbenches.
    The section's ``pre_pr`` subkey preserves the same harness's numbers
    measured at the pre-flat-array core for the speedup trajectory.
    """
    workload = WorkloadSpec("google-scale10k")
    trace = workload.trace(0)
    out: dict = {
        "workload": {
            "name": "google-scale10k",
            "jobs": len(trace),
            "tasks": trace.total_tasks,
        },
        "n_workers": 10_000,
        "policies": {},
    }
    total_best = 0.0
    for name in ("hawk", "sparrow"):
        spec = RunSpec(
            scheduler=name,
            n_workers=10_000,
            cutoff=workload.cutoff,
            short_partition_fraction=(
                workload.short_partition_fraction if name == "hawk" else 0.0
            ),
        )
        best = float("inf")
        result = None
        for _ in range(repeats):
            engine = build_engine(spec)
            start = time.perf_counter()
            result = engine.run(trace)
            best = min(best, time.perf_counter() - start)
        entry = {
            "events": result.events_fired,
            "wall_s": round(best, 4),
            "events_per_sec": round(result.events_fired / best),
        }
        if result.stealing is not None:
            entry["steal_rounds"] = result.stealing.rounds
            entry["successful_rounds"] = result.stealing.successful_rounds
            entry["entries_stolen"] = result.stealing.entries_stolen
        out["policies"][name] = entry
        total_best += best
    out["total_wall_s"] = round(total_best, 4)
    out["steal_round"] = bench_steal_rounds()
    out["cache_read"] = bench_cache_read()
    return out


def bench_sweep(scale: str) -> dict:
    """Cold vs warm wall time of a two-point fig05 sweep (isolated caches)."""
    # Imported here: experiments.parallel spins executor state on import.
    from repro.experiments import fig05_google
    from repro.experiments.parallel import DiskCache, SweepExecutor, set_executor

    targets = (1.0, 0.5)
    google_workload(scale).trace(0)  # exclude trace generation from both timings
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


def _synthetic_sleep_run(spec: RunSpec, trace: Trace):
    """Stand-in simulation for the streaming bench: sleep, don't compute.

    The point's cost is encoded as its only task's duration, so the grid
    shape fully determines the schedule.  Sleeps overlap across pool
    processes even on a single CPU, which keeps the barrier-vs-stream
    comparison about *orchestration* (who waits on whom) rather than
    about how much CPU the host happens to have.  Module-level so it
    pickles into pool submissions.
    """
    duration = next(iter(trace)).task_durations[0]
    time.sleep(duration)
    return (trace.name, duration)


def _skewed_grid(
    n_batches: int, batch_points: int, fast_s: float, slow_s: float
) -> list[list[tuple[RunSpec, Trace]]]:
    """A batched grid with one slow straggler at the front.

    Every point gets a content-distinct single-task trace (distinct job
    id), so nothing deduplicates and both arms execute every point.
    """
    from repro.workloads.spec import JobSpec

    spec = RunSpec(scheduler="sparrow", n_workers=1, cutoff=10.0)
    batches = []
    point = 0
    for b in range(n_batches):
        batch = []
        for k in range(batch_points):
            duration = slow_s if (b == 0 and k == 0) else fast_s
            trace = Trace(
                [JobSpec(point, 0.0, (duration,))], name=f"stream-{point}"
            )
            batch.append((spec, trace))
            point += 1
        batches.append(batch)
    return batches


def bench_sweep_stream(scale: str) -> dict:
    """Chained batch barriers vs one continuous stream on a skewed grid.

    The barrier arm runs each batch through ``run_many`` and joins before
    starting the next — the shape every multi-workload figure driver had
    before streaming — so batches 1..B-1 all wait behind batch 0's slow
    point.  The stream arm feeds the identical pairs through one
    ``run_stream``: the second worker chews through the fast points while
    the first sleeps on the straggler, and the makespan collapses to
    roughly the straggler itself.  Both arms use 2 pool workers, no
    caches, and the sleep-based synthetic run.
    """
    from repro.experiments.parallel import SweepExecutor

    if scale == "quick":
        n_batches, batch_points, fast_s, slow_s = 14, 5, 0.02, 1.5
    else:
        n_batches, batch_points, fast_s, slow_s = 16, 5, 0.03, 2.4
    batches = _skewed_grid(n_batches, batch_points, fast_s, slow_s)
    n_points = n_batches * batch_points

    def fresh_executor() -> SweepExecutor:
        return SweepExecutor(
            max_workers=2,
            disk_cache=None,
            trace_shm=False,
            run_fn=_synthetic_sleep_run,
        )

    barrier = fresh_executor()
    try:
        start = time.perf_counter()
        for batch in batches:
            barrier.run_many(batch)
        barrier_s = time.perf_counter() - start
    finally:
        barrier.close()

    stream = fresh_executor()
    try:
        start = time.perf_counter()
        for _ in stream.run_stream(
            pair for batch in batches for pair in batch
        ):
            pass
        stream_s = time.perf_counter() - start
    finally:
        stream.close()

    summary = stream.summary()
    # The executor's own accounting must agree with the grid: every point
    # executed exactly once, nothing served from a cache tier.
    assert summary["executions"] == n_points, summary
    assert summary["memo_hits"] == 0 and summary["disk_hits"] == 0, summary
    assert summary["max_inflight"] <= stream.inflight, summary
    return {
        "grid": {
            "batches": n_batches,
            "points_per_batch": batch_points,
            "fast_s": fast_s,
            "slow_s": slow_s,
            "total_points": n_points,
        },
        "workers": 2,
        "barrier_s": round(barrier_s, 4),
        "stream_s": round(stream_s, 4),
        "speedup": round(barrier_s / stream_s, 3),
        "executor": summary,
    }


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
        "sweep_stream": bench_sweep_stream(scale),
    }


def merge_into(path: Path, section: str, payload: dict) -> dict:
    """Update one mode section of the JSON file, preserving the rest."""
    data: dict = {}
    if path.is_file():
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            data = {}
    data.setdefault("schema", 1)
    data.setdefault(
        "workload",
        "google-like trace at the high-load cluster size; hawk + sparrow",
    )
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def check_regression(baseline_path: Path, section: str, fresh: dict) -> list[str]:
    """Compare a fresh run to the committed baseline; return failures."""
    if not baseline_path.is_file():
        return [f"no baseline file at {baseline_path}"]
    baseline = json.loads(baseline_path.read_text()).get(section)
    if not baseline:
        return [f"baseline {baseline_path} has no '{section}' section"]
    failures = []
    committed = baseline["events"]["events_per_sec"]
    measured = fresh["events"]["events_per_sec"]
    floor = committed / REGRESSION_FACTOR
    if measured < floor:
        failures.append(
            f"events/sec regression: measured {measured} < floor {floor:.0f} "
            f"(committed {committed} / {REGRESSION_FACTOR})"
        )
    # The stealing-heavy point is gated the same way (baselines written
    # before the point existed simply skip it).
    if "stealing" in baseline and "stealing" in fresh:
        committed = baseline["stealing"]["events_per_sec"]
        measured = fresh["stealing"]["events_per_sec"]
        floor = committed / REGRESSION_FACTOR
        if measured < floor:
            failures.append(
                f"stealing events/sec regression: measured {measured} < "
                f"floor {floor:.0f} (committed {committed} / "
                f"{REGRESSION_FACTOR})"
            )
    # The streaming executor must beat chained barriers outright on the
    # skewed grid — an absolute floor, not a baseline ratio, so losing
    # the producer/consumer overlap can never slip through.
    if "sweep_stream" in fresh:
        speedup = fresh["sweep_stream"]["speedup"]
        if speedup < STREAM_SPEEDUP_FLOOR:
            failures.append(
                f"sweep_stream speedup {speedup} < floor "
                f"{STREAM_SPEEDUP_FLOOR} (barrier "
                f"{fresh['sweep_stream']['barrier_s']}s vs stream "
                f"{fresh['sweep_stream']['stream_s']}s)"
            )
    return failures


def check_scale_regression(baseline_path: Path, fresh: dict) -> list[str]:
    """Gate a fresh scale-tier run against the committed ``scale`` section.

    Always gates the steal-round and cache-read microbenches; gates the
    10k-point events/sec too when the fresh payload includes the engine
    runs (``--scale`` without ``--quick``).
    """
    if not baseline_path.is_file():
        return [f"no baseline file at {baseline_path}"]
    baseline = json.loads(baseline_path.read_text()).get("scale")
    if not baseline:
        return [f"baseline {baseline_path} has no 'scale' section"]
    failures = []
    committed = baseline["steal_round"]["rounds_per_sec"]
    measured = fresh["steal_round"]["rounds_per_sec"]
    floor = committed / REGRESSION_FACTOR
    if measured < floor:
        failures.append(
            f"steal rounds/sec regression: measured {measured} < floor "
            f"{floor:.0f} (committed {committed} / {REGRESSION_FACTOR})"
        )
    committed = baseline["cache_read"]["ms_per_read"]
    measured = fresh["cache_read"]["ms_per_read"]
    ceiling = committed * REGRESSION_FACTOR
    if measured > ceiling:
        failures.append(
            f"cache read regression: measured {measured} ms/read > ceiling "
            f"{ceiling:.3f} (committed {committed} * {REGRESSION_FACTOR})"
        )
    if "policies" in fresh:
        for name, numbers in baseline.get("policies", {}).items():
            committed = numbers["events_per_sec"]
            measured = fresh["policies"][name]["events_per_sec"]
            floor = committed / REGRESSION_FACTOR
            if measured < floor:
                failures.append(
                    f"scale point {name} events/sec regression: measured "
                    f"{measured} < floor {floor:.0f} (committed {committed} "
                    f"/ {REGRESSION_FACTOR})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Measure core simulator throughput and sweep wall-times.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="quick-scale trace (CI smoke); default is the full benchmark scale",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help=(
            "measure the 10k-worker fig05 scale tier instead of the "
            "quick/full workloads; with --quick, only the steal-round "
            "and cache-read microbenches run (CI smoke)"
        ),
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="JSON file to merge results into (default: repo-root BENCH_core.json)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print results without touching the output file",
    )
    parser.add_argument(
        "--check",
        type=Path,
        nargs="?",
        const=None,
        default=False,
        metavar="BASELINE",
        help=(
            "fail (exit 1) on a >1.5x events/sec regression vs the committed "
            "baseline JSON (default: the output file itself)"
        ),
    )
    args = parser.parse_args(argv)
    output = args.output or default_output()
    if args.scale:
        section = "scale"
        if args.quick:
            payload = {
                "steal_round": bench_steal_rounds(),
                "cache_read": bench_cache_read(),
            }
        else:
            payload = bench_scale(repeats=args.repeats or 3)
        print(json.dumps({section: payload}, indent=2, sort_keys=True))
        if args.check is not False:
            baseline = args.check or output
            failures = check_scale_regression(baseline, payload)
            if failures:
                for failure in failures:
                    print(f"PERF CHECK FAILED: {failure}", file=sys.stderr)
                return 1
            print(
                f"perf check ok: {payload['steal_round']['rounds_per_sec']} "
                f"steal rounds/sec, {payload['cache_read']['ms_per_read']} "
                f"ms per cached read (baseline {baseline})"
            )
        if not args.no_write:
            # Partial scale runs (--quick) and fresh full runs both keep
            # whatever else the committed section carries (the pre_pr
            # reference in particular).
            existing: dict = {}
            if output.is_file():
                try:
                    existing = json.loads(output.read_text()).get(section, {})
                except (OSError, ValueError):
                    existing = {}
            merge_into(output, section, {**existing, **payload})
            print(f"wrote {output}")
        return 0
    section = "quick" if args.quick else "full"
    payload = run_bench(quick=args.quick, repeats=args.repeats)
    print(json.dumps({section: payload}, indent=2, sort_keys=True))
    if args.check is not False:
        baseline = args.check or output
        failures = check_regression(baseline, section, payload)
        if failures:
            for failure in failures:
                print(f"PERF CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(
            f"perf check ok: {payload['events']['events_per_sec']} events/sec "
            f"(baseline {baseline})"
        )
    if not args.no_write:
        merge_into(output, section, payload)
        print(f"wrote {output}")
    return 0
