"""Long-running scheduler service with an event-sourced run store.

The simulator (:mod:`repro.cluster`) replays a whole trace at once; the
threaded prototype (:mod:`repro.runtime`) binds the same registry
policies to one OS thread per node and replays a trace in real time with
real sleeps.  This package is the third leg the ROADMAP's north star
asks for: a *server*.  It accepts streaming job submissions over HTTP
and a newline-delimited-JSON socket, schedules them in real time against
a virtual cluster driven by any registered policy (the simulation clock
tracks the wall clock, so probing, queueing, stealing and completions
happen at honest times without burning a thread per node), and persists
every lifecycle transition — submitted, probed, queued, started, stolen,
task-completed, completed — to an append-only SQLite WAL event store
with monotonic sequence numbers.

Because the store is the source of truth, :func:`repro.service.replay.replay`
folds the log back into the same :class:`~repro.cluster.records.RunResult`
records the simulator produces: every metric in :mod:`repro.metrics`
works on served traffic, and a served run can be compared against its
simulated twin from the log alone, without re-running anything.

Entry points
------------
* ``repro-serve`` / ``python -m repro.service`` — run the server.
* ``python -m repro.service.bench`` — sustained-load benchmark writing
  ``BENCH_service.json`` (jobs/sec, scheduling-latency percentiles,
  event-store write throughput).
"""

from repro.core.errors import StoreUnavailable
from repro.service.api import DrainTimeout, ServiceState
from repro.service.event_store import EventStore
from repro.service.models import (
    LifecycleEvent,
    ServiceConfig,
    Submission,
)
from repro.service.replay import RunFold, replay
from repro.service.scheduler_bridge import SchedulerBridge
from repro.service.server import ReproService, ServiceThread

__all__ = [
    "DrainTimeout",
    "EventStore",
    "LifecycleEvent",
    "ReproService",
    "RunFold",
    "SchedulerBridge",
    "ServiceConfig",
    "ServiceState",
    "ServiceThread",
    "StoreUnavailable",
    "Submission",
    "replay",
]
