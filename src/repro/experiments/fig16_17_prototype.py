"""Figures 16-17: prototype implementation vs simulation.

The paper runs a 3300-job Google sample on a 100-node Spark cluster
(sleep tasks, durations scaled seconds -> milliseconds) and sweeps load
via the mean job inter-arrival time expressed as a multiple of the mean
task runtime, comparing Hawk to Sparrow and overlaying the corresponding
simulation results.  Expected outcome: the two agree in trend — Hawk is
best at high load, the 50th percentiles converge as load decreases, and
the short-job 90th percentile stays considerably better even at medium
load — with residual differences because the simulation does not model
scheduling/stealing overheads (Section 4.10).

Here the "implementation" is the threaded prototype runtime
(:mod:`repro.runtime`): real OS threads, real sleeps, real lock
contention and real message latency.  Both systems run the same
``RunSpec`` per (scheduler, load point), so they share the policy code
and the carried job classification.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.cluster.job import JobClass
from repro.cluster.records import RunResult
from repro.core.errors import ConfigurationError
from repro.experiments.config import RunSpec
from repro.experiments.parallel import get_executor
from repro.experiments.report import FigureResult
from repro.metrics.percentiles import percentile
from repro.runtime import PrototypeCluster
from repro.workloads import GOOGLE_CUTOFF_S, WorkloadSpec
from repro.workloads.google import GOOGLE_SHORT_PARTITION_FRACTION
from repro.workloads.scaling import (
    PrototypeScaledTrace,
    scale_trace_for_prototype,
    with_interarrival,
)
from repro.workloads.spec import Trace

#: The paper's load sweep (inter-arrival multiples).
PAPER_MULTIPLES = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.25)

#: A cheaper default sweep for the benchmark harness.
DEFAULT_MULTIPLES = (1.0, 1.4, 1.8, 2.25)


def _scheduled_runtimes(result: RunResult, job_class: JobClass) -> list[float]:
    """Runtimes filtered by *scheduled* class.

    Prototype-scaled traces carry their classification from the original
    trace (task-count compensation perturbs scaled means), so scheduled
    class — identical across all four systems compared here — is the
    consistent reporting population.
    """
    scheduled_short = result.job_columns.scheduled_short
    index = (
        scheduled_short
        if job_class is JobClass.SHORT
        else np.logical_not(scheduled_short)
    )
    return result.runtime_column(index).tolist()


def _ratio(hawk: RunResult, sparrow: RunResult, cls: JobClass, p: float) -> float:
    return percentile(_scheduled_runtimes(hawk, cls), p) / percentile(
        _scheduled_runtimes(sparrow, cls), p
    )


def _load_points(
    n_jobs: int,
    cluster_size: int,
    multiples: Iterable[float],
    target_mean_task_runtime: float,
    seed: int,
) -> tuple[PrototypeScaledTrace, list[tuple[float, Trace]]]:
    """The scaled Google sample and one trace per inter-arrival multiple."""
    # The base sample is declared by workload spec; the prototype scaling
    # is a transform on top (it needs the time factor and the carried
    # long-job classification, not just the scaled trace).
    base = WorkloadSpec("google", {"n_jobs": n_jobs}).trace(seed)
    scaled = scale_trace_for_prototype(
        base,
        cluster_size=cluster_size,
        cutoff=GOOGLE_CUTOFF_S,
        target_mean_task_runtime=target_mean_task_runtime,
    )
    # Offered load 1.0 at multiple 1: base gap = work / (jobs * capacity).
    base_interarrival = scaled.trace.total_task_seconds / (
        len(scaled.trace) * cluster_size
    )
    return scaled, [
        (m, with_interarrival(scaled.trace, m * base_interarrival, seed=seed))
        for m in multiples
    ]


def _table(
    figure_id: str,
    title: str,
    rows: Iterable[tuple[float, str, RunResult, RunResult]],
) -> FigureResult:
    """Hawk/Sparrow percentile ratios, one row per ``(multiple, system,
    hawk, sparrow)``."""
    result = FigureResult(
        figure_id=figure_id,
        title=title,
        headers=(
            "interarrival multiple",
            "system",
            "short p50",
            "short p90",
            "long p50",
            "long p90",
        ),
    )
    for multiple, system, hawk, sparrow in rows:
        result.add_row(
            multiple,
            system,
            *(
                _ratio(hawk, sparrow, cls, p)
                for cls in (JobClass.SHORT, JobClass.LONG)
                for p in (50, 90)
            ),
        )
    return result


def run(
    n_jobs: int = 80,
    n_monitors: int = 100,
    multiples=DEFAULT_MULTIPLES,
    target_mean_task_runtime: float = 0.12,
    seed: int = 3,
) -> FigureResult:
    scaled, points = _load_points(
        n_jobs, n_monitors, multiples, target_mean_task_runtime, seed
    )
    rows = []
    for multiple, trace in points:
        # One spec per system pair: the prototype and the simulator run
        # the same policy with the same carried classification.
        specs = [
            RunSpec(
                scheduler=scheduler,
                n_workers=n_monitors,
                cutoff=scaled.cutoff,
                short_partition_fraction=GOOGLE_SHORT_PARTITION_FRACTION,
                seed=seed,
                estimate=scaled.carried_estimate,
                estimate_tag="carried-classes",
            )
            for scheduler in ("sparrow", "hawk")
        ]
        sparrow, hawk = (PrototypeCluster(spec).run(trace) for spec in specs)
        rows.append((multiple, "implementation", hawk, sparrow))
        sparrow, hawk = get_executor().run_many([(spec, trace) for spec in specs])
        rows.append((multiple, "simulation", hawk, sparrow))
    result = _table(
        "Figures 16-17",
        f"Implementation vs simulation, Hawk/Sparrow, {n_monitors} nodes",
        rows,
    )
    result.add_note(
        "implementation and simulation should agree in trend; exact values "
        "differ because the simulation has no scheduling/stealing overheads "
        "(Section 4.10)"
    )
    return result


# -- event-log replay path ---------------------------------------------------
#
# A second "implementation" exists since the scheduler service landed: the
# same Hawk/Sparrow comparison can be driven through live service bridges,
# every lifecycle transition persisted, and the figure rendered later from
# nothing but the event log.  ``make_events_fixture`` records such a log
# (opt-in: the recording embeds wall-clock timing) and ``run_from_events``
# folds a committed fixture back into the table deterministically.

#: Load points recorded into the committed fixture (kept to the sweep's
#: endpoints so the file stays small).
FIXTURE_MULTIPLES = (1.0, 2.25)


def default_events_path() -> Path:
    """The committed fixture next to the other benchmark results."""
    return (
        Path(__file__).resolve().parents[3]
        / "benchmarks"
        / "results"
        / "fig16_17_events.ndjson.gz"
    )


def make_events_fixture(
    path: Path | None = None,
    n_jobs: int = 30,
    n_workers: int = 40,
    multiples=FIXTURE_MULTIPLES,
    target_mean_task_runtime: float = 0.05,
    time_scale: float = 4.0,
    seed: int = 3,
) -> Path:
    """Record the Hawk/Sparrow load sweep as a service event log.

    Streams the scaled Google sample through one live
    :class:`~repro.service.scheduler_bridge.SchedulerBridge` per
    (scheduler, load point) — pacing submissions so virtual arrival times
    reproduce the trace — and exports the store as portable NDJSON.  The
    client supplies the estimate that carries each job's original
    classification, exactly like the simulation rows of :func:`run`.
    """
    from repro.service.event_store import EventStore
    from repro.service.models import Submission
    from repro.service.replay import export_ndjson
    from repro.service.scheduler_bridge import SchedulerBridge

    path = path or default_events_path()
    scaled, points = _load_points(
        n_jobs, n_workers, multiples, target_mean_task_runtime, seed
    )
    labels: dict[str, dict[str, object]] = {}
    with tempfile.TemporaryDirectory(prefix="fig16-17-events-") as tmp:
        with EventStore(os.path.join(tmp, "fixture.db")) as store:
            for index, (multiple, trace) in enumerate(points):
                arrivals = sorted(trace, key=lambda s: s.submit_time)
                for scheduler in ("sparrow", "hawk"):
                    run_spec = RunSpec(
                        scheduler,
                        n_workers,
                        scaled.cutoff,
                        short_partition_fraction=GOOGLE_SHORT_PARTITION_FRACTION,
                        # the seed doubles as the load-point index so each
                        # (scheduler, multiple) pair is its own run id
                        seed=index,
                    )
                    bridge = SchedulerBridge(
                        run_spec, store, time_scale=time_scale
                    ).start()
                    t0 = time.monotonic()
                    for spec in arrivals:
                        delay = spec.submit_time / time_scale - (
                            time.monotonic() - t0
                        )
                        if delay > 0:
                            time.sleep(delay)
                        bridge.submit(
                            Submission(
                                tasks=spec.task_durations,
                                tenant="fig16-17",
                                estimate=scaled.carried_estimate(spec),
                            )
                        )
                    if not bridge.drain(timeout=300.0):
                        raise TimeoutError(
                            f"{scheduler} run at multiple {multiple} did "
                            "not drain"
                        )
                    bridge.stop(timeout=300.0)
                    labels[bridge.run_id] = {
                        "scheduler": scheduler,
                        "multiple": multiple,
                    }
            export_ndjson(
                store,
                path,
                meta={
                    "figure": "16-17",
                    "n_jobs": n_jobs,
                    "n_workers": n_workers,
                    "time_scale": time_scale,
                    "target_mean_task_runtime": target_mean_task_runtime,
                    "seed": seed,
                },
                labels=labels,
            )
    return path


def run_from_events(path: Path | str | None = None) -> FigureResult:
    """Render the figure from a recorded event log — no scheduling at all.

    Every row is a cold fold of the fixture's persisted events; rerunning
    is deterministic because the wall-clock work happened once, at
    recording time.
    """
    from repro.service.replay import load_ndjson

    fixture = Path(path) if path is not None else default_events_path()
    log = load_ndjson(fixture)
    results = log.results()
    by_point: dict[float, dict[str, RunResult]] = {}
    for run_id, run_result in results.items():
        label = log.labels.get(run_id, {})
        missing = [key for key in ("multiple", "scheduler") if key not in label]
        if missing:
            raise ConfigurationError(
                f"{fixture}: run {run_id}'s label lacks {' and '.join(missing)}"
            )
        point = by_point.setdefault(float(label["multiple"]), {})
        point[str(label["scheduler"])] = run_result
    rows = []
    for multiple in sorted(by_point):
        pair = by_point[multiple]
        for scheduler in ("hawk", "sparrow"):
            if scheduler not in pair:
                raise ConfigurationError(
                    f"{fixture}: load point {multiple} has no {scheduler} run"
                )
        rows.append((multiple, "service-replay", pair["hawk"], pair["sparrow"]))
    n_workers = next(iter(log.configs.values())).n_workers
    result = _table(
        "Figures 16-17 (event-log replay)",
        (
            f"Hawk/Sparrow served online, {n_workers} virtual nodes, "
            "folded from the recorded event log"
        ),
        rows,
    )
    result.add_note(
        f"folded from {fixture.name}: every row is a cold replay of the "
        "scheduler service's persisted lifecycle events"
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.fig16_17_prototype",
        description=(
            "Figures 16-17 from the service event log: render a committed "
            "fixture (--from-events) or record a fresh one (--make-events)."
        ),
    )
    parser.add_argument(
        "--from-events",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help=(
            "fold an NDJSON event log into the figure "
            "(default: the committed fixture)"
        ),
    )
    parser.add_argument(
        "--make-events",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="record the fixture by running the sweep through live bridges",
    )
    args = parser.parse_args(argv)
    if args.make_events is not None:
        target = Path(args.make_events) if args.make_events else None
        written = make_events_fixture(target)
        print(f"wrote {written}")
        return 0
    if args.from_events is not None:
        source = Path(args.from_events) if args.from_events else None
        try:
            print(run_from_events(source).render())
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
