"""Replay: fold a lifecycle-event log back into simulator records.

The event store is the source of truth, so a run's
:class:`~repro.cluster.records.RunResult` is *defined* as a fold over
its events: :class:`RunFold` consumes ``submitted``/``stolen``/
``completed``/``run-end`` transitions (the other kinds are audit
detail), and a batch run's stream folds to exactly its ``RunResult``,
the scheduler's name aside.  The live service uses the *same* fold
step on the events it emits (:meth:`RunFold.apply`) that a cold
:func:`replay` runs over stored rows — snapshot and tail read in one
step, six columns (``seq, kind, vtime, wtime, job_id, payload``) per
row — so live results and a cold replay agree by construction; the
equality tests in ``tests/service`` hold the two paths to that.

Replay decodes each ``submitted`` payload per row, because the fold
keeps a copy of it, and every other payload once per distinct text:
rows of one text share one decoded object, which the step only reads.
A payload that does not decode raises :class:`ConfigurationError`
naming its seq, as a payload the step cannot read does.

``RunFold.to_state``/``from_state`` round-trip the fold through JSON for
the store's snapshot/compaction path, and the NDJSON helpers
(:func:`export_ndjson` / :func:`load_ndjson`) serialize whole logs to
portable files — the committed fixture behind
``fig16_17_prototype --from-events`` is one of these.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.cluster.engine import (
    KIND_COMPLETED,
    KIND_RUN_END,
    KIND_STARTED,
    KIND_STOLEN,
    KIND_SUBMITTED,
)
from repro.cluster.job import JobClass
from repro.cluster.records import (
    JobRecord,
    RunResult,
    StealingStats,
    UtilizationSample,
)
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

#: Event kinds the fold reads; it only counts the others.
_FOLDED_KINDS = frozenset((*_JOB_KINDS, KIND_STOLEN, KIND_RUN_END))

#: Each :class:`JobClass` by value, so a record costs no Enum call.
_JOB_CLASSES = {member.value: member for member in JobClass}

#: The counts a ``run-end`` payload carries besides its samples.
_STEALING_COUNTS = tuple(f.name for f in fields(StealingStats))
_RUN_END_COUNTS = (*_STEALING_COUNTS, "events_fired")


def _no_job_id(kind: str, seq: int) -> ConfigurationError:
    """The error for a :data:`_JOB_KINDS` event that names no job."""
    return ConfigurationError(f"{kind!r} event seq {seq} has no job_id")


def _job_class(value: Any) -> JobClass:
    """``JobClass(value)``; a value no member has raises its error."""
    try:
        return _JOB_CLASSES[value]
    except (KeyError, TypeError):
        return JobClass(value)


def _run_end(payload: Mapping[str, Any]) -> dict[str, Any]:
    """A ``run-end`` payload, its counts and samples cast to their types."""
    return {
        **{name: int(payload[name]) for name in _RUN_END_COUNTS},
        "utilization": [
            [float(time), int(busy), int(total)]
            for time, busy, total in payload["utilization"]
        ],
    }


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
    :meth:`to_state`.  ``run_end`` holds a batch run's closing
    ``run-end`` payload; no event may follow it.
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
    run_end: dict[str, Any] | None = None

    def apply(self, event: LifecycleEvent) -> None:
        """Fold one event (events must arrive in ascending seq order)."""
        self.step(
            event.seq, event.kind, event.vtime, event.wtime, event.job_id,
            event.payload,
        )

    def step(
        self, seq: int, kind: str, vtime: float, wtime: float,
        job_id: int | None, payload: Mapping[str, Any],
    ) -> None:
        """The one fold step, over an event's six fields (:meth:`apply`,
        :func:`replay` over stored rows, and the run ledger's sink).

        A payload the fold cannot read, a non-mapping one included,
        raises :class:`ConfigurationError` naming the event's seq (for
        ``completed``, the job's ``submitted`` payload is read too).
        """
        if seq <= self.last_seq:
            raise ConfigurationError(
                f"event seq {seq} out of order (last folded "
                f"{self.last_seq})"
            )
        if self.run_end is not None:
            raise ConfigurationError(
                f"{kind!r} event seq {seq} follows the run's run-end event"
            )
        self.events_folded += 1
        self.last_seq = seq
        if vtime > self.last_vtime:
            self.last_vtime = vtime
        if kind not in _FOLDED_KINDS:
            return
        try:
            if kind == KIND_STOLEN:
                self.steal_transfers += 1
                self.entries_stolen += int(payload.get("entries", 0))
            elif kind == KIND_RUN_END:
                self.run_end = _run_end(payload)
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
                submitted_at = self.pending.pop(job_id, None)
                if submitted_at is None:
                    raise ConfigurationError(
                        f"job {job_id} completed without a submitted "
                        "event (log truncated before its submission?)"
                    )
                submit_vtime, submitted = submitted_at
                self.records.append(
                    JobRecord(
                        job_id,
                        submit_vtime,
                        vtime,
                        int(submitted["num_tasks"]),
                        float(submitted["true_mean"]),
                        float(submitted["estimate"]),
                        float(submitted["task_seconds"]),
                        _job_class(submitted["scheduled_class"]),
                        _job_class(submitted["true_class"]),
                        int(payload.get("stolen_tasks", 0)),
                        int(payload.get("retried_tasks", 0)),
                    )
                )
        except (AttributeError, KeyError, ValueError, TypeError) as exc:
            raise ConfigurationError(
                f"{kind!r} event seq {seq} (job {job_id}) has a malformed "
                f"payload: {exc!r}"
            ) from exc

    @property
    def jobs_completed(self) -> int:
        return len(self.records)

    @property
    def jobs_in_flight(self) -> int:
        return len(self.pending)

    def result(self, spec: RunSpec) -> RunResult:
        """Materialize the fold as a simulator-shaped result.

        A batch stream ends in ``run-end``, whose stealing counts,
        ``events_fired`` and utilization samples the result takes, so it
        equals the run's own result but for ``scheduler_name``.  A
        service run has no ``run-end`` (a crash restarts the engine's
        counters, so the run has no one total): its ``utilization`` is
        empty, ``events_fired`` counts folded events, and its stealing
        counts come from ``stolen`` events, exact for
        ``successful_rounds`` and ``entries_stolen`` and lower bounds
        for ``rounds`` and ``victims_probed``.
        """
        records = tuple(sorted(self.records, key=lambda r: r.job_id))
        transfers = self.steal_transfers
        totals: dict[str, Any] = self.run_end or {
            "rounds": transfers,
            "successful_rounds": transfers,
            "victims_probed": transfers,
            "entries_stolen": self.entries_stolen,
            "events_fired": self.events_folded,
            "utilization": [],
        }
        return RunResult(
            scheduler_name=f"service-{spec.scheduler}",
            n_workers=spec.n_workers,
            jobs=records,
            utilization=[UtilizationSample(*s) for s in totals["utilization"]],
            stealing=StealingStats(**{n: totals[n] for n in _STEALING_COUNTS}),
            events_fired=totals["events_fired"],
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
            # Absent from service states, as from those written before
            # batch streams closed with run-end.
            **({} if self.run_end is None else {"run_end": self.run_end}),
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
        if state.get("run_end") is not None:
            fold.run_end = _run_end(state["run_end"])
        return fold


def replay(
    store: EventStore, run_id: str, upto: int | None = None
) -> RunFold:
    """Cold replay: snapshot (if any) plus the committed event tail.

    One :meth:`EventStore.replay_rows` read gives both, so a concurrent
    checkpoint cannot compact events out from between them.  With
    ``upto``, the tail stops at that seq; a snapshot that covers more is
    still used, so the fold's ``last_seq`` then exceeds ``upto``.  Each
    row is folded from its six fields, its payload decoded as the module
    docstring says.
    """
    snapshot, rows = store.replay_rows(run_id, upto)
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
    step = fold.step
    for seq, kind, vtime, wtime, job_id, text in rows:
        payload = None if kind == KIND_SUBMITTED else parsed.get(text)
        if payload is None:
            try:
                payload = loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{kind!r} event seq {seq} (job {job_id}) has an "
                    f"undecodable payload: {exc}"
                ) from exc
            if kind != KIND_SUBMITTED:
                parsed[text] = payload
        step(seq, kind, vtime, wtime, job_id, payload)
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
