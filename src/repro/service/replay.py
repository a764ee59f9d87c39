"""Replay: fold a lifecycle-event log back into simulator records.

The event store is the source of truth, so a run's
:class:`~repro.cluster.records.RunResult` is *defined* as a fold over
its events: :class:`RunFold` consumes ``submitted``/``stolen``/
``completed`` transitions (the other kinds are audit detail) and
:meth:`RunFold.result` materializes records byte-compatible with what
:meth:`ClusterEngine.run` builds.  The live service uses the *same* fold
step on the events it emits (:meth:`RunFold.apply`) that a cold
:func:`replay` runs over stored rows — snapshot and tail read in one
step, six columns (``seq, kind, vtime, wtime, job_id, payload``) per
row, and only the payloads the fold reads decoded per row — so live
results and a cold replay agree by construction; the equality tests in
``tests/service`` hold the two paths to that.

``RunFold.to_state``/``from_state`` round-trip the fold through JSON for
the store's snapshot/compaction path, and the NDJSON helpers
(:func:`export_ndjson` / :func:`load_ndjson`) serialize whole logs to
portable files — the committed fixture behind
``fig16_17_prototype --from-events`` is one of these.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.cluster.engine import (
    KIND_COMPLETED,
    KIND_STARTED,
    KIND_STOLEN,
    KIND_SUBMITTED,
)
from repro.cluster.job import JobClass
from repro.cluster.records import JobRecord, RunResult, StealingStats
from repro.core.errors import ConfigurationError
from repro.core.textfile import open_text
from repro.schedulers.registry import RunSpec
from repro.service.event_store import EventStore
from repro.service.models import (
    LifecycleEvent,
    canonical_json,
    run_spec_from_json,
    run_spec_to_json,
)


def record_to_json(record: JobRecord) -> dict[str, Any]:
    """One :class:`JobRecord` as a JSON-safe dict (enums by value)."""
    return {
        **record._asdict(),
        "scheduled_class": record.scheduled_class.value,
        "true_class": record.true_class.value,
    }


def record_from_json(data: Mapping[str, Any]) -> JobRecord:
    return JobRecord(
        job_id=int(data["job_id"]),
        submit_time=float(data["submit_time"]),
        completion_time=float(data["completion_time"]),
        num_tasks=int(data["num_tasks"]),
        true_mean_task_duration=float(data["true_mean_task_duration"]),
        estimated_task_duration=float(data["estimated_task_duration"]),
        task_seconds=float(data["task_seconds"]),
        scheduled_class=JobClass(data["scheduled_class"]),
        true_class=JobClass(data["true_class"]),
        stolen_tasks=int(data["stolen_tasks"]),
        # Absent in logs written before fault injection existed.
        retried_tasks=int(data.get("retried_tasks", 0)),
    )


#: Event kinds the fold keys on their job.
_JOB_KINDS = (KIND_SUBMITTED, KIND_STARTED, KIND_COMPLETED)

#: Event kinds whose payload the fold reads.
_PAYLOAD_KINDS = frozenset((KIND_SUBMITTED, KIND_STOLEN, KIND_COMPLETED))


def _no_job_id(kind: str, seq: int) -> ConfigurationError:
    """The error for a :data:`_JOB_KINDS` event that names no job."""
    return ConfigurationError(f"{kind!r} event seq {seq} has no job_id")


@dataclass(slots=True)
class RunFold:
    """Folds one run's events into records — incrementally resumable.

    Feed it events in seq order (``apply``); read a point-in-time result
    any time (``result``).  The fold only keeps per-job state for jobs
    still in flight, so memory is bounded by concurrency, not log
    length.

    ``latencies`` collects each job's scheduling latency: the wall time
    of its first ``started`` event minus the receipt wall time its
    ``submitted`` payload carries (``recv``, consumed from the pending
    payload on first start).  It is in-memory only, not part of
    :meth:`to_state`.
    """

    pending: dict[int, tuple[float, dict[str, Any]]] = field(
        default_factory=dict
    )
    records: list[JobRecord] = field(default_factory=list)
    events_folded: int = 0
    last_vtime: float = 0.0
    last_seq: int = 0
    steal_transfers: int = 0
    entries_stolen: int = 0
    latencies: list[float] = field(default_factory=list)

    def apply(self, event: LifecycleEvent) -> None:
        """Fold one event (events must arrive in ascending seq order)."""
        self._fold(
            event.seq, event.kind, event.vtime, event.wtime, event.job_id,
            event.payload,
        )

    def _fold(
        self, seq: int, kind: str, vtime: float, wtime: float,
        job_id: int | None, payload: Mapping[str, Any],
    ) -> None:
        """The one fold step, over an event's six fields (:meth:`apply`,
        and :func:`replay` over stored rows)."""
        if seq <= self.last_seq:
            raise ConfigurationError(
                f"event seq {seq} out of order (last folded "
                f"{self.last_seq})"
            )
        self.events_folded += 1
        self.last_seq = seq
        if vtime > self.last_vtime:
            self.last_vtime = vtime
        if kind == KIND_STOLEN:
            self.steal_transfers += 1
            self.entries_stolen += int(payload.get("entries", 0))
        elif kind not in _JOB_KINDS:
            return
        elif job_id is None:
            raise _no_job_id(kind, seq)
        elif kind == KIND_SUBMITTED:
            self.pending[job_id] = (vtime, dict(payload))
        elif kind == KIND_STARTED:
            submitted = self.pending.get(job_id)
            if submitted is not None and "recv" in submitted[1]:
                recv = float(submitted[1].pop("recv"))
                self.latencies.append(wtime - recv)
        else:
            try:
                submit_vtime, submitted = self.pending.pop(job_id)
            except KeyError:
                raise ConfigurationError(
                    f"job {job_id} completed without a submitted "
                    "event (log truncated before its submission?)"
                ) from None
            self.records.append(
                JobRecord(
                    job_id=job_id,
                    submit_time=submit_vtime,
                    completion_time=vtime,
                    num_tasks=int(submitted["num_tasks"]),
                    true_mean_task_duration=float(submitted["true_mean"]),
                    estimated_task_duration=float(submitted["estimate"]),
                    task_seconds=float(submitted["task_seconds"]),
                    scheduled_class=JobClass(submitted["scheduled_class"]),
                    true_class=JobClass(submitted["true_class"]),
                    stolen_tasks=int(payload.get("stolen_tasks", 0)),
                    retried_tasks=int(payload.get("retried_tasks", 0)),
                )
            )

    @property
    def jobs_completed(self) -> int:
        return len(self.records)

    @property
    def jobs_in_flight(self) -> int:
        return len(self.pending)

    def result(self, spec: RunSpec) -> RunResult:
        """Materialize the fold as a simulator-shaped result.

        Utilization sampling has no online analogue (there is no fixed
        run horizon), so ``utilization`` is always empty; every other
        field matches what a batch run of the same schedule would carry.
        """
        records = tuple(sorted(self.records, key=lambda r: r.job_id))
        stealing = StealingStats(
            rounds=self.steal_transfers,
            successful_rounds=self.steal_transfers,
            victims_probed=self.steal_transfers,
            entries_stolen=self.entries_stolen,
        )
        return RunResult(
            scheduler_name=f"service-{spec.scheduler}",
            n_workers=spec.n_workers,
            jobs=records,
            utilization=(),
            stealing=stealing,
            events_fired=self.events_folded,
            end_time=self.last_vtime,
        )

    # -- snapshot round trip ---------------------------------------------
    def to_state(self) -> dict[str, Any]:
        """JSON-safe checkpoint of the fold (for store snapshots)."""
        return {
            "pending": {
                str(job_id): {"vtime": vtime, "payload": payload}
                for job_id, (vtime, payload) in self.pending.items()
            },
            "records": [record_to_json(r) for r in self.records],
            "events_folded": self.events_folded,
            "last_vtime": self.last_vtime,
            "last_seq": self.last_seq,
            "steal_transfers": self.steal_transfers,
            "entries_stolen": self.entries_stolen,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "RunFold":
        fold = cls()
        for job_id, entry in dict(state["pending"]).items():
            fold.pending[int(job_id)] = (
                float(entry["vtime"]),
                dict(entry["payload"]),
            )
        fold.records.extend(record_from_json(r) for r in state["records"])
        fold.events_folded = int(state["events_folded"])
        fold.last_vtime = float(state["last_vtime"])
        fold.last_seq = int(state["last_seq"])
        fold.steal_transfers = int(state["steal_transfers"])
        fold.entries_stolen = int(state["entries_stolen"])
        return fold


def replay(store: EventStore, run_id: str) -> RunFold:
    """Cold replay: snapshot (if any) plus the committed event tail.

    One :meth:`EventStore.replay_rows` read gives both, so a concurrent
    checkpoint cannot compact events out from between them.  Each row is
    folded from its six fields; only :data:`_PAYLOAD_KINDS` payloads are
    decoded per row, any other is parsed once per distinct text (so a
    corrupt row still raises its :class:`json.JSONDecodeError`).
    """
    snapshot, rows = store.replay_rows(run_id)
    if snapshot is None:
        fold = RunFold()
    else:
        after_seq, state = snapshot
        fold = RunFold.from_state(state)
        if fold.last_seq > after_seq:
            raise ConfigurationError(
                f"snapshot for {run_id} claims seq {after_seq} but its "
                f"state folded up to {fold.last_seq}"
            )
    loads = json.loads
    parsed: dict[str, Any] = {}
    for seq, kind, vtime, wtime, job_id, text in rows:
        if kind in _PAYLOAD_KINDS:
            payload = loads(text)
        elif text in parsed:
            payload = parsed[text]
        else:
            payload = parsed[text] = loads(text)
        fold._fold(seq, kind, vtime, wtime, job_id, payload)
    return fold


def result_to_json(result: RunResult) -> dict[str, Any]:
    """A :class:`RunResult` as a JSON-safe dict (API responses)."""
    return {
        "scheduler_name": result.scheduler_name,
        "n_workers": result.n_workers,
        "jobs": [record_to_json(r) for r in result.jobs],
        "stealing": asdict(result.stealing),
        "events_fired": result.events_fired,
        "end_time": result.end_time,
    }


# -- portable NDJSON logs ------------------------------------------------
@dataclass(slots=True)
class NdjsonLog:
    """An event log loaded from an NDJSON file (meta, runs, events)."""

    meta: dict[str, Any]
    configs: dict[str, RunSpec]
    labels: dict[str, dict[str, Any]]
    events: list[LifecycleEvent]

    def results(self) -> dict[str, RunResult]:
        """Fold every run in the file to its result, keyed by run id."""
        folds: dict[str, RunFold] = {
            run_id: RunFold() for run_id in self.configs
        }
        for event in self.events:
            fold = folds.get(event.run_id)
            if fold is None:
                raise ConfigurationError(
                    f"event {event.seq} names unknown run {event.run_id!r}"
                )
            fold.apply(event)
        return {
            run_id: fold.result(self.configs[run_id])
            for run_id, fold in folds.items()
        }


def export_ndjson(
    store: EventStore,
    path: Path,
    meta: Mapping[str, Any] | None = None,
    labels: Mapping[str, Mapping[str, Any]] | None = None,
) -> int:
    """Write the store's full log to ``path`` (gzipped iff ``*.gz``).

    Line 1 is a ``meta`` header, then one ``run`` line per registered
    run (config plus an optional caller-supplied label), then every
    event in seq order.  Returns the number of event lines written.
    """
    configs = store.run_configs()
    labels = labels or {}
    count = 0
    with open_text(path, "w") as out:
        out.write(canonical_json({"type": "meta", **dict(meta or {})}) + "\n")
        for run_id, spec in configs.items():
            line = {
                "type": "run",
                "run_id": run_id,
                "config": run_spec_to_json(spec),
                "label": dict(labels.get(run_id, {})),
            }
            out.write(canonical_json(line) + "\n")
        for event in store.events():
            out.write(
                canonical_json({"type": "event", **event.to_json()}) + "\n"
            )
            count += 1
    return count


def load_ndjson(path: Path) -> NdjsonLog:
    """Parse an :func:`export_ndjson` file back into memory.

    A malformed line raises :class:`ConfigurationError` naming
    ``path:line``.
    """
    meta: dict[str, Any] = {}
    configs: dict[str, RunSpec] = {}
    labels: dict[str, dict[str, Any]] = {}
    events: list[LifecycleEvent] = []
    with open_text(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise ConfigurationError(
                        f"expected a JSON object, got {type(data).__name__}"
                    )
                kind = data.get("type")
                if kind == "meta":
                    meta = {k: v for k, v in data.items() if k != "type"}
                elif kind == "run":
                    run_id = data["run_id"]
                    configs[run_id] = run_spec_from_json(data["config"])
                    labels[run_id] = dict(data.get("label") or {})
                elif kind == "event":
                    event = LifecycleEvent.from_json(data)
                    if event.job_id is None and event.kind in _JOB_KINDS:
                        raise _no_job_id(event.kind, event.seq)
                    events.append(event)
                else:
                    raise ConfigurationError(f"unknown line type {kind!r}")
            except KeyError as exc:
                raise ConfigurationError(
                    f"{path}:{line_no}: missing field {exc}"
                ) from None
            except (ValueError, TypeError, ConfigurationError) as exc:
                raise ConfigurationError(f"{path}:{line_no}: {exc}") from exc
    if not configs:
        raise ConfigurationError(f"{path} declares no runs")
    events.sort(key=lambda e: e.seq)
    return NdjsonLog(meta=meta, configs=configs, labels=labels, events=events)


def fold_events(events: Iterable[LifecycleEvent]) -> RunFold:
    """Fold an in-memory event sequence (test helper)."""
    fold = RunFold()
    for event in sorted(events, key=lambda e: e.seq):
        fold.apply(event)
    return fold
