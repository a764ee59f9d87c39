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
write.  ``--check`` evaluates :data:`SERVICE`'s gate rows through the
shared :mod:`repro.bench` harness, with a generous 3x factor: these are
wall-clock numbers from a shared CI box, so the gate is a tripwire for
collapses (an accidental fsync-per-event, a serialized bridge), not a
perf tracker.
"""

from __future__ import annotations

import json
import os
import platform
import random
import socket
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any

from repro.bench import Gate, Harness, bench_parser, finish
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


def _exchange(
    host: str, port: int, lines: list[str], gap_s: float = 0.0
) -> list[dict[str, Any]]:
    """One client: send a line, await its ok response, sleep ``gap_s``, repeat."""
    responses: list[dict[str, Any]] = []
    with socket.create_connection((host, port)) as sock:
        handle = sock.makefile("rw", encoding="utf-8", newline="\n")
        for line in lines:
            handle.write(line)
            handle.flush()
            response = json.loads(handle.readline())
            if not response.get("ok"):
                raise RuntimeError(f"request failed: {response}")
            responses.append(response)
            if gap_s:
                time.sleep(gap_s)
        handle.close()
    return responses


def _request(host: str, port: int, payload: dict[str, Any]) -> dict[str, Any]:
    return _exchange(host, port, [canonical_json(payload) + "\n"])[0]


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
        config = ServiceConfig()
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
            start = time.perf_counter()
            with ThreadPoolExecutor(clients) as pool:
                chunks = pool.map(partial(_exchange, host, port), per_client)
                run_ids = sorted({r["run_id"] for chunk in chunks for r in chunk})
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
            # seed=1 gives the paced phase its own run id, so the latency
            # log is not diluted by flood submissions.
            paced = [
                _job_line(rng, policies[0], n_workers, seed=1)
                for _ in range(n_paced)
            ]
            paced_run_id = _exchange(host, port, paced, gap_s)[-1]["run_id"]
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


#: ``BENCH_service.json`` and its ``--check`` gate table.
_GATES = (
    Gate("jobs/sec", "flood.jobs_per_sec", "floor"),
    Gate("store writes/sec", "event_store.writes_per_sec", "floor"),
    Gate("replay match (live result == cold replay)", "replay_match", "true"),
)
SERVICE = Harness(
    filename="BENCH_service.json",
    workload=(
        "in-process service: NDJSON flood (hawk + sparrow) and a paced "
        "latency phase"
    ),
    factor=REGRESSION_FACTOR,
    gates={"quick": _GATES, "full": _GATES},
)


def main(argv: list[str] | None = None) -> int:
    parser = bench_parser(
        SERVICE,
        "python -m repro.service.bench",
        "Measure scheduler-service throughput and latency.",
    )
    args = parser.parse_args(argv)
    section = "quick" if args.quick else "full"
    return finish(SERVICE, args, section, run_bench(quick=args.quick))


if __name__ == "__main__":
    sys.exit(main())
