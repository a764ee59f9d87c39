"""Service load harness (``python -m repro.service.bench``).

Boots a whole service in-process (event store, scheduler bridges, the
NDJSON socket listener) and measures the three numbers that matter for a
serving scheduler, writing them to ``BENCH_service.json`` at the repo
root next to ``BENCH_core.json``:

* **sustained jobs/sec** — a closed-loop flood: ``clients`` concurrent
  socket connections each stream submissions back-to-back (next job sent
  when the previous acknowledgment arrives), alternating between two
  registry policies, until ``jobs`` jobs are accepted and drained.
* **scheduling latency p50/p99** — an open-loop paced phase: jobs
  submitted at a fixed gap, latencies folded *from the event log* by a
  cold :func:`~repro.service.replay.replay` (first ``started`` wall time
  minus the submission's receipt wall time recorded in the
  ``submitted`` payload) — the same numbers a cold reader of the store
  would derive, not a privileged in-process view.
* **event-store write throughput** — events appended per second of
  cumulative write-path time, from the store's own counters.

The JSON keeps one section per mode (``quick``/``full``) and merges on
write.  ``--check`` gates jobs/sec and store writes/sec against the
committed section with a generous 3x factor: these are wall-clock
numbers from a shared CI box, so the gate is a tripwire for collapses
(an accidental fsync-per-event, a serialized bridge), not a perf
tracker.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

from repro.service.api import ServiceState
from repro.service.event_store import EventStore
from repro.service.models import ServiceConfig, canonical_json
from repro.service.replay import replay
from repro.service.server import ServiceThread

#: Fail ``--check`` when a fresh rate drops below committed/this.  Looser
#: than the core bench's 1.5x on purpose: every number here includes
#: socket round trips and thread scheduling on a noisy CI box.
REGRESSION_FACTOR = 3.0

#: Virtual seconds per wall second during the benchmark.  High enough
#: that virtual task execution never backpressures the submission path —
#: the benchmark measures the service machinery, not the simulated
#: cluster's capacity.
TIME_SCALE = 50.0


def default_output() -> Path:
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "BENCH_service.json"
    return Path.cwd() / "BENCH_service.json"


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _job_line(
    rng: random.Random, policy: str, n_workers: int, seed: int = 0
) -> str:
    tasks = [
        round(rng.uniform(0.01, 0.05), 6) for _ in range(rng.randint(1, 3))
    ]
    return (
        canonical_json(
            {
                "policy": policy,
                "n_workers": n_workers,
                "seed": seed,
                "tasks": tasks,
            }
        )
        + "\n"
    )


def _stream_lines(host: str, port: int, lines: list[str]) -> list[str]:
    """One closed-loop client: send a line, await the ack, repeat."""
    run_ids: list[str] = []
    with socket.create_connection((host, port)) as sock:
        handle = sock.makefile("rw", encoding="utf-8", newline="\n")
        for line in lines:
            handle.write(line)
            handle.flush()
            response = json.loads(handle.readline())
            if not response.get("ok"):
                raise RuntimeError(f"submission rejected: {response}")
            run_ids.append(response["run_id"])
        handle.close()
    return run_ids


def _request(host: str, port: int, payload: dict[str, Any]) -> dict[str, Any]:
    with socket.create_connection((host, port)) as sock:
        handle = sock.makefile("rw", encoding="utf-8", newline="\n")
        handle.write(canonical_json(payload) + "\n")
        handle.flush()
        response: dict[str, Any] = json.loads(handle.readline())
        handle.close()
    if not response.get("ok"):
        raise RuntimeError(f"request failed: {response}")
    return response


def run_bench(quick: bool = False) -> dict[str, Any]:
    n_flood = 400 if quick else 3000
    n_paced = 100 if quick else 500
    clients = 4 if quick else 8
    gap_s = 0.002
    n_workers = 50
    policies = ("hawk", "sparrow")
    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as tmp:
        store = EventStore(os.path.join(tmp, "bench_events.db"))
        state = ServiceState(store, time_scale=TIME_SCALE)
        config = ServiceConfig(db_path=store.path)
        rng = random.Random(0)
        with ServiceThread(state, config) as service:
            host = config.host
            port = service.socket_port
            # -- flood: closed-loop, `clients` concurrent connections --
            per_client: list[list[str]] = [[] for _ in range(clients)]
            for i in range(n_flood):
                per_client[i % clients].append(
                    _job_line(rng, policies[i % len(policies)], n_workers)
                )
            results: list[list[str]] = [[] for _ in range(clients)]
            errors: list[BaseException] = []

            def client(index: int) -> None:
                try:
                    results[index] = _stream_lines(
                        host, port, per_client[index]
                    )
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise RuntimeError(f"flood client failed: {errors[0]}")
            run_ids = sorted({rid for chunk in results for rid in chunk})
            for run_id in run_ids:
                _request(
                    host, port, {"op": "drain", "run_id": run_id, "timeout": 120}
                )
            flood_wall = time.perf_counter() - start
            # -- replay equality while the bridges are still live --
            replay_match = all(
                _request(host, port, {"op": "replay-check", "run_id": rid})[
                    "match"
                ]
                for rid in run_ids
            )
            # -- paced: open-loop latency measurement --
            paced_policy = policies[0]
            paced_run_id = ""
            with socket.create_connection((host, port)) as sock:
                handle = sock.makefile("rw", encoding="utf-8", newline="\n")
                for _ in range(n_paced):
                    # seed=1 gives the paced phase its own run id, so the
                    # latency log is not diluted by flood submissions.
                    handle.write(
                        _job_line(rng, paced_policy, n_workers, seed=1)
                    )
                    handle.flush()
                    response = json.loads(handle.readline())
                    if not response.get("ok"):
                        raise RuntimeError(f"paced reject: {response}")
                    paced_run_id = response["run_id"]
                    time.sleep(gap_s)
                handle.close()
            _request(
                host, port,
                {"op": "drain", "run_id": paced_run_id, "timeout": 120},
            )
            latencies = replay(store, paced_run_id).latencies
            store_stats = store.stats()
            total_events = store.event_count()
        store.close()
    write_seconds = store_stats["write_seconds"]
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "time_scale": TIME_SCALE,
        "flood": {
            "jobs": n_flood,
            "clients": clients,
            "policies": list(policies),
            "runs": run_ids,
            "wall_s": round(flood_wall, 4),
            "jobs_per_sec": round(n_flood / flood_wall, 1),
        },
        "latency": {
            "jobs": n_paced,
            "gap_ms": gap_s * 1e3,
            "samples": len(latencies),
            "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
            "mean_ms": round(
                sum(latencies) / len(latencies) * 1e3 if latencies else 0.0, 3
            ),
        },
        "event_store": {
            "events": total_events,
            "appended": int(store_stats["events_appended"]),
            "commits": int(store_stats["commits"]),
            "write_seconds": round(write_seconds, 4),
            "writes_per_sec": round(
                store_stats["events_appended"] / write_seconds
                if write_seconds > 0
                else 0.0
            ),
        },
        "replay_match": replay_match,
    }


def merge_into(path: Path, section: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Update one mode section of the JSON file, preserving the rest."""
    data: dict[str, Any] = {}
    if path.is_file():
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            data = {}
    data.setdefault("schema", 1)
    data.setdefault(
        "workload",
        "in-process service: NDJSON flood (hawk + sparrow) and a paced "
        "latency phase",
    )
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def check_regression(
    baseline_path: Path, section: str, fresh: dict[str, Any]
) -> list[str]:
    """Compare a fresh run to the committed baseline; return failures."""
    if not baseline_path.is_file():
        return [f"no baseline file at {baseline_path}"]
    baseline = json.loads(baseline_path.read_text()).get(section)
    if not baseline:
        return [f"baseline {baseline_path} has no '{section}' section"]
    failures = []
    for label, path in (
        ("jobs/sec", ("flood", "jobs_per_sec")),
        ("store writes/sec", ("event_store", "writes_per_sec")),
    ):
        committed = float(baseline[path[0]][path[1]])
        measured = float(fresh[path[0]][path[1]])
        floor = committed / REGRESSION_FACTOR
        if measured < floor:
            failures.append(
                f"{label} regression: measured {measured} < floor "
                f"{floor:.0f} (committed {committed} / {REGRESSION_FACTOR})"
            )
    if not fresh.get("replay_match", False):
        failures.append("replay-check mismatch: live result != cold replay")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.bench",
        description="Measure scheduler-service throughput and latency.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small job counts (CI smoke); default is the full load",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            "JSON file to merge results into "
            "(default: repo-root BENCH_service.json)"
        ),
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
            "fail (exit 1) on a >3x throughput regression vs the committed "
            "baseline JSON (default: the output file itself)"
        ),
    )
    args = parser.parse_args(argv)
    output = args.output or default_output()
    section = "quick" if args.quick else "full"
    payload = run_bench(quick=args.quick)
    print(json.dumps({section: payload}, indent=2, sort_keys=True))
    if args.check is not False:
        baseline = args.check or output
        failures = check_regression(baseline, section, payload)
        if failures:
            for failure in failures:
                print(f"PERF CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(
            f"perf check ok: {payload['flood']['jobs_per_sec']} jobs/sec "
            f"(baseline {baseline})"
        )
    if not args.no_write:
        merge_into(output, section, payload)
        print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
