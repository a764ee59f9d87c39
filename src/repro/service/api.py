"""Transport-agnostic service operations.

Both front ends — the asyncio HTTP server and the newline-delimited-JSON
socket (:mod:`repro.service.server`) — are thin parsers over the
:class:`ServiceState` methods here, so the two transports cannot drift:
a submission means the same thing whichever door it came through.

``ServiceState`` owns the event store and one lazily-created
:class:`~repro.service.scheduler_bridge.SchedulerBridge` per distinct
:class:`~repro.schedulers.registry.RunSpec` (keyed by its content-digest
:func:`~repro.service.models.run_id`): two clients naming the same
policy + params + cluster shape share one virtual cluster, while
different configurations are isolated runs in the same store.

All methods raise :class:`~repro.core.errors.ConfigurationError` for
client mistakes (unknown policy, bad params, unknown run); transports
map that to a 400-class response.  :class:`DrainTimeout` — a run whose
in-flight jobs outlasted the caller's drain budget — maps to 504, and
:class:`~repro.core.errors.StoreUnavailable` to 503.

Crash recovery
--------------
:meth:`ServiceState.rehydrate` (the server calls it on startup) scans
the store for runs that still have jobs in flight — a previous process
died mid-run — replays each one's log to its last committed event, and
resumes it on a fresh bridge: completed jobs keep their replayed
records, interrupted jobs are re-submitted from the task durations their
``submitted`` events recorded.  Because the run id is the configuration
digest, a client re-submitting after the crash lands on the resumed
bridge rather than forking a second history.
"""

from __future__ import annotations

import logging
import threading
from typing import Any, Mapping

from repro.core.errors import ConfigurationError, ReproError
from repro.schedulers.registry import RunSpec
from repro.service import models
from repro.service.event_store import EventStore
from repro.service.replay import replay, result_to_json
from repro.service.scheduler_bridge import SchedulerBridge

logger = logging.getLogger(__name__)


#: Parsed run-config spellings kept per allowed live run (see
#: :meth:`ServiceState._config`).
CONFIGS_PER_RUN = 16


class DrainTimeout(ReproError):
    """A run's in-flight jobs did not finish within the drain budget."""


class ServiceState:
    """Shared state behind every transport: store plus live bridges."""

    def __init__(
        self,
        store: EventStore,
        max_runs: int = 32,
        time_scale: float = 1.0,
    ) -> None:
        if max_runs < 1:
            raise ConfigurationError("max_runs must be >= 1")
        self.store = store
        self.max_runs = max_runs
        self.time_scale = time_scale
        self._bridges: dict[str, SchedulerBridge] = {}
        self._configs: dict[tuple[str, ...], tuple[RunSpec, str]] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: Run ids whose bridge threads outlived the shutdown budget
        #: (set by :meth:`close`, mirroring the prototype's
        #: ``leaked_monitors``).
        self.leaked_bridges: tuple[str, ...] = ()
        #: Jobs re-submitted per resumed run (set by :meth:`rehydrate`).
        self.rehydrated: dict[str, int] = {}

    # -- crash recovery ---------------------------------------------------
    def rehydrate(self) -> dict[str, Any]:
        """Resume every stored run that still has jobs in flight.

        For each registered run the log is replayed cold; a run whose
        fold has pending jobs gets a fresh bridge seeded with that fold
        (:meth:`SchedulerBridge.resume_from`), so the interrupted jobs
        re-run under their original ids and the log simply continues.
        Runs are resumed independently — one corrupt log is reported and
        skipped, not allowed to block the rest.  Idempotent: a run with
        a live bridge is left alone.
        """
        resumed: list[dict[str, Any]] = []
        errors: list[str] = []
        for run_id, spec in self.store.run_configs().items():
            try:
                fold = replay(self.store, run_id)
            except ReproError as exc:
                logger.warning("rehydrate: replay of %s failed: %s", run_id, exc)
                errors.append(run_id)
                continue
            if not fold.pending:
                continue
            try:
                with self._lock:
                    if self._live_or_room(run_id) is not None:
                        continue
                bridge = SchedulerBridge(
                    spec, self.store, time_scale=self.time_scale
                )
                jobs = bridge.resume_from(fold)
                # Read the fold before the bridge starts advancing it.
                unrecoverable = fold.jobs_in_flight - jobs
                done = fold.jobs_completed
                if self._install(bridge) is not bridge:
                    continue
            except ConfigurationError as exc:
                logger.warning("rehydrate: %s stays cold: %s", run_id, exc)
                errors.append(run_id)
                continue
            self.rehydrated[run_id] = jobs
            resumed.append(
                {
                    "run_id": run_id,
                    "jobs_resumed": jobs,
                    "jobs_unrecoverable": unrecoverable,
                    "jobs_already_done": done,
                }
            )
            logger.info(
                "rehydrate: resumed %s with %d interrupted job(s) "
                "(%d already complete in the log)",
                run_id,
                jobs,
                done,
            )
        return {"resumed": resumed, "failed": errors}

    # -- operations ------------------------------------------------------
    def submit(
        self, payload: Mapping[str, Any], *, create: bool = True
    ) -> dict[str, Any] | None:
        """One job submission: validate, route to its run, enqueue.

        The payload carries both the run configuration (``policy``,
        ``params``, optional cluster shape) and the job itself
        (``tasks``, ``tenant``, optional ``estimate``).

        Submitting to a live run never waits on SQLite, so the
        transports call this on their event loop with ``create=False``:
        a job whose run is not live yet then returns ``None``, and the
        transport repeats the call on the executor, where starting the
        run (engine construction and the ``register_run`` commit) may
        block.
        """
        spec, run_id = self._config(payload)
        submission = models.Submission.from_json(payload)
        bridge = self._bridge_for(spec, run_id, create)
        if bridge is None:
            return None
        job_id = bridge.submit(submission)
        return {"run_id": bridge.run_id, "job_id": job_id}

    def runs(self) -> dict[str, Any]:
        """Every run the store knows about, live or historical."""
        with self._lock:
            live = dict(self._bridges)
        rows = []
        for run_id, spec in self.store.run_configs().items():
            row: dict[str, Any] = {
                "run_id": run_id,
                "policy": spec.scheduler,
                "live": run_id in live,
            }
            bridge = live.get(run_id)
            if bridge is not None:
                row.update(bridge.stats())
            rows.append(row)
        return {"runs": rows}

    def run_detail(self, run_id: str) -> dict[str, Any]:
        spec = self._config_for(run_id)
        detail: dict[str, Any] = {
            "run_id": run_id,
            "config": models.run_spec_to_json(spec),
            "events": self.store.event_count(run_id),
        }
        bridge = self._live_bridge(run_id)
        if bridge is not None:
            detail["stats"] = bridge.stats()
            detail["latencies"] = list(bridge.latencies())
        return detail

    def run_result(
        self, run_id: str, drain: bool = True, timeout: float = 60.0
    ) -> dict[str, Any]:
        """The run's folded result; optionally wait for in-flight jobs.

        Blocking — transports call it off the event loop.  A drain that
        outlasts ``timeout`` raises :class:`DrainTimeout` (the HTTP edge
        maps it to 504) instead of quietly returning a partial result;
        callers that want the partial fold pass ``drain=False``.
        """
        spec = self._config_for(run_id)
        bridge = self._live_bridge(run_id)
        drained = True
        if bridge is not None:
            if drain:
                drained = bridge.drain(timeout)
                if not drained:
                    in_flight = bridge.stats()["in_flight"]
                    logger.warning(
                        "run %s still has %d job(s) in flight after a "
                        "%.1fs drain",
                        run_id,
                        in_flight,
                        timeout,
                    )
                    raise DrainTimeout(
                        f"run {run_id!r} still has {in_flight} job(s) in "
                        f"flight after {timeout:.1f}s; retry later or pass "
                        "drain=false for a partial result"
                    )
            result = bridge.result()
        else:
            result = replay(self.store, run_id).result(spec)
        return {
            "run_id": run_id,
            "drained": drained,
            "result": result_to_json(result),
        }

    def replay_check(self, run_id: str) -> dict[str, Any]:
        """Fold the stored log cold and compare against the live result.

        Only meaningful while the run's bridge is alive; a historical
        run has nothing but the log to compare with itself.  The bridge
        stores each event before it folds it, so the replay stops at the
        last seq the live result folded.  A checkpoint saved past that
        seq in between makes the replay start beyond it; the checkpoint
        came from the live fold, so the live result is read again, and
        only a live fold that has not moved is compared as it is.
        """
        spec = self._config_for(run_id)
        bridge = self._live_bridge(run_id)
        if bridge is None:
            raise ConfigurationError(
                f"run {run_id!r} has no live bridge to compare against"
            )
        live, upto = bridge.result_at()
        fold = replay(self.store, run_id, upto=upto)
        while fold.last_seq > upto:
            live, seen = bridge.result_at()
            if seen == upto:
                break
            upto = seen
            fold = replay(self.store, run_id, upto=upto)
        cold = fold.result(spec)
        return {
            "run_id": run_id,
            "match": live == cold,
            "live_jobs": len(live.job_columns.job_id),
            "replayed_jobs": len(cold.job_columns.job_id),
        }

    def checkpoint(self, run_id: str, compact: bool = False) -> dict[str, Any]:
        bridge = self._live_bridge(run_id)
        if bridge is None:
            raise ConfigurationError(
                f"run {run_id!r} has no live bridge to checkpoint"
            )
        compacted = bridge.checkpoint(compact=compact)
        return {"run_id": run_id, "compacted_events": compacted}

    def health(self) -> dict[str, Any]:
        with self._lock:
            live = len(self._bridges)
        return {
            "status": "ok",
            "live_runs": live,
            "rehydrated_runs": len(self.rehydrated),
            "events": self.store.event_count(),
        }

    def close(self, timeout: float = 60.0) -> bool:
        """Drain and stop every live bridge, then flush the store.

        A bridge whose thread outlives its join budget is recorded on
        :attr:`leaked_bridges` and logged (mirroring the prototype's
        leaked-monitor reporting) instead of hanging shutdown; its jobs
        stay recoverable — the next start rehydrates them from the log.
        """
        with self._lock:
            if self._closed:
                return not self.leaked_bridges
            self._closed = True
            bridges = list(self._bridges.values())
            self._bridges.clear()
        leaked = []
        for bridge in bridges:
            if not bridge.stop(timeout):
                leaked.append(bridge.run_id)
        self.leaked_bridges = tuple(leaked)
        if leaked:
            logger.warning(
                "%d bridge thread(s) did not drain within %.1fs of "
                "shutdown (runs %s); their daemon threads were abandoned "
                "and their jobs will be rehydrated on the next start",
                len(leaked),
                timeout,
                leaked,
            )
        self.store.flush()
        return not leaked

    # -- internals -------------------------------------------------------
    def _config(self, payload: Mapping[str, Any]) -> tuple[RunSpec, str]:
        """The payload's validated run spec and its run id, parsed once
        per spelling.

        Every job names its run's config, so a job for a live run costs
        one dict lookup here instead of a parse and a run-id hash.  Only
        parsed configs are kept, so an error is raised anew each time;
        a payload :func:`~repro.service.models.config_key` cannot key is
        parsed every time.  At ``CONFIGS_PER_RUN * max_runs`` spellings
        the memo starts over.
        """
        key = models.config_key(payload)
        memo = self._configs.get(key) if key is not None else None
        if memo is None:
            spec = models.run_spec_from_json(payload)
            memo = spec, models.run_id(spec)
            if key is not None:
                if len(self._configs) >= CONFIGS_PER_RUN * self.max_runs:
                    self._configs.clear()
                self._configs[key] = memo
        return memo

    def _bridge_for(
        self, spec: RunSpec, run_id: str, create: bool
    ) -> SchedulerBridge | None:
        """The run's live bridge; without one, start it if ``create``.

        The new bridge is built without ``_lock`` held, so a live-run
        lookup never waits on another run's engine construction or
        ``register_run`` commit.
        """
        with self._lock:
            bridge = self._live_or_room(run_id)
        if bridge is None and create:
            bridge = self._install(
                SchedulerBridge(spec, self.store, time_scale=self.time_scale)
            )
        return bridge

    def _install(self, bridge: SchedulerBridge) -> SchedulerBridge:
        """Start a built bridge as its run's live one and return it.

        Re-checks under the lock: when a racing caller installed the
        run's bridge first, that one is returned and ``bridge`` is
        dropped unstarted, so every run has exactly one live bridge.
        """
        with self._lock:
            live = self._live_or_room(bridge.run_id)
            if live is None:
                live = self._bridges[bridge.run_id] = bridge.start()
            return live

    def _live_or_room(self, run_id: str) -> SchedulerBridge | None:
        """The run's live bridge, or ``None`` when one may be started.

        Raises :class:`ConfigurationError` once :meth:`close` has begun
        or when the run limit leaves no room.  Callers hold ``_lock``.
        """
        if self._closed:
            raise ConfigurationError("service is shutting down")
        bridge = self._bridges.get(run_id)
        if bridge is None and len(self._bridges) >= self.max_runs:
            raise ConfigurationError(
                f"run limit reached ({self.max_runs} live runs); "
                "drain one before starting another configuration"
            )
        return bridge

    def _live_bridge(self, run_id: str) -> SchedulerBridge | None:
        with self._lock:
            return self._bridges.get(run_id)

    def _config_for(self, run_id: str) -> RunSpec:
        bridge = self._live_bridge(run_id)
        if bridge is not None:
            return bridge.spec
        configs = self.store.run_configs()
        try:
            return configs[run_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown run {run_id!r}; known runs: {sorted(configs)}"
            ) from None
