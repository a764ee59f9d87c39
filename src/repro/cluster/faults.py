"""Deterministic fault injection for the cluster engine.

A :class:`FaultPlan` is a schema-validated description of everything that
may go wrong in a run: worker crash/restart schedules, probe/task message
loss and extra delay, straggler slowdown factors, and centralized-scheduler
outage windows.  Plans use the shared :mod:`repro.core.params` machinery,
so they validate, canonicalize and ``repr()`` exactly like policy and
workload params — the repr is the plan's cache identity
(:attr:`repro.schedulers.registry.RunSpec.digest` folds it into the run
cache key whenever a plan is present, and skips it entirely when absent,
keeping every pre-fault cache key byte-identical).

All fault randomness derives from the engine seed through dedicated named
streams (:func:`repro.core.rng.make_rng`): the crash schedule, straggler
assignment, message perturbations and redistribution targets each consume
their own stream, so the same ``(seed, plan)`` yields the same failures in
every process, and fault draws never perturb the policy/stealing streams.

Failure semantics (implemented by :class:`FaultInjector` plus engine
hooks — see :meth:`repro.cluster.engine.ClusterEngine.attach_faults`):

* **Crashes.**  A seeded subset of workers dies at seeded times inside the
  crash window.  The running task is re-queued after ``detect_delay``
  (re-execution counted in ``Job.retried_tasks`` /
  ``JobRecord.retried_tasks``), queued entries are redistributed to live
  workers (long entries stay in the general partition), messages in flight
  to a dead worker are redirected, and stealing skips dead victims through
  the flat ``steal_flags`` column (a dead worker's flag is always 0).
  Worker 0 is exempt so the general partition always keeps one live node.
  With ``restart_delay > 0`` the worker rejoins empty after that long.
* **Message faults.**  Each probe/task message is independently lost with
  probability ``msg_loss``; a lost attempt is retransmitted after
  ``retransmit_delay`` (and may be lost again), so loss manifests as a
  geometric extra delay and progress is always guaranteed.  Independently,
  ``msg_extra_delay`` is added with probability ``msg_extra_delay_prob``.
  Message faults disable transport batching (per-message events carry
  per-message perturbations).
* **Stragglers.**  A seeded ``straggler_fraction`` of workers executes
  every task ``straggler_slowdown`` times slower.  Recorded
  ``task_seconds`` stay nominal — stragglers stretch wall time, not work.
* **Centralized outage.**  During ``[central_outage_start,
  central_outage_start + central_outage_duration)`` the engine reports
  ``centralized_down``; the centralized policy defers submissions until
  the outage ends, while Hawk degrades gracefully — long jobs fall back to
  the distributed probe path over the general partition — and recovers
  when the outage lifts (see the policy modules).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.params import FrozenParams, Param, validate_against
from repro.core.rng import make_rng, sample_without_replacement

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster.engine import ClusterEngine
    from repro.cluster.task import Task

#: The declared fault knobs.  Everything defaults to "off": a plan built
#: from the defaults is empty and normalizes to no plan at all.
FAULT_PARAMS: tuple[Param, ...] = (
    Param("crash_fraction", float, default=0.0, minimum=0.0, maximum=0.5,
          doc="fraction of workers that crash once during the crash window"),
    Param("crash_start", float, default=0.0, minimum=0.0,
          doc="start of the crash window (simulated seconds)"),
    Param("crash_window", float, default=1000.0, minimum=0.0,
          doc="length of the window crash times are drawn uniformly from"),
    Param("restart_delay", float, default=0.0, minimum=0.0,
          doc="seconds until a crashed worker rejoins (0 = never)"),
    Param("detect_delay", float, default=0.5, minimum=0.0,
          doc="seconds between a crash and the re-dispatch of its lost work"),
    Param("msg_loss", float, default=0.0, minimum=0.0, maximum=0.9,
          doc="per-message loss probability (lost messages retransmit)"),
    Param("retransmit_delay", float, default=1.0, minimum=0.001,
          doc="extra delay paid per lost transmission attempt"),
    Param("msg_extra_delay", float, default=0.0, minimum=0.0,
          doc="extra delay added to a message with msg_extra_delay_prob"),
    Param("msg_extra_delay_prob", float, default=0.0, minimum=0.0,
          maximum=1.0, doc="probability of the extra message delay"),
    Param("straggler_fraction", float, default=0.0, minimum=0.0,
          maximum=0.9, doc="fraction of workers running tasks slowed down"),
    Param("straggler_slowdown", float, default=1.0, minimum=1.0,
          doc="execution-time multiplier on straggler workers"),
    Param("central_outage_start", float, default=0.0, minimum=0.0,
          doc="start of the centralized-scheduler outage window"),
    Param("central_outage_duration", float, default=0.0, minimum=0.0,
          doc="length of the centralized outage (0 = no outage)"),
)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A validated, canonical description of one run's injected faults.

    ``params`` is validated against :data:`FAULT_PARAMS` at construction
    (unknown names, wrong types and out-of-range values fail fast) and
    stored as a :class:`~repro.core.params.FrozenParams`, so equality,
    hashing and — crucially — ``repr()`` are canonical: the repr is the
    plan's identity in the run cache key.
    """

    params: Mapping = FrozenParams()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "params", validate_against("FaultPlan", FAULT_PARAMS, self.params)
        )

    @classmethod
    def of(cls, **knobs: float) -> "FaultPlan":
        """Keyword-argument convenience constructor."""
        return cls(params=knobs)

    # -- which fault families does this plan actually switch on? --------
    @property
    def crashes_active(self) -> bool:
        return self.params["crash_fraction"] > 0.0

    @property
    def messages_active(self) -> bool:
        p = self.params
        return p["msg_loss"] > 0.0 or (
            p["msg_extra_delay_prob"] > 0.0 and p["msg_extra_delay"] > 0.0
        )

    @property
    def stragglers_active(self) -> bool:
        p = self.params
        return p["straggler_fraction"] > 0.0 and p["straggler_slowdown"] > 1.0

    @property
    def outage_active(self) -> bool:
        return self.params["central_outage_duration"] > 0.0

    @property
    def is_empty(self) -> bool:
        """True when no fault family is switched on.

        An empty plan is semantically identical to no plan; ``RunSpec``
        normalizes it to ``None`` so both hash, compare and cache alike.
        """
        return not (
            self.crashes_active
            or self.messages_active
            or self.stragglers_active
            or self.outage_active
        )


class FaultInjector:
    """Engine-side executor of one :class:`FaultPlan`.

    Owns the fault RNG streams, the crash schedule, the dead-worker and
    straggler columns, and the recovery actions the engine delegates to.
    Created by :meth:`ClusterEngine.attach_faults`; one injector serves
    exactly one run.
    """

    def __init__(self, plan: FaultPlan, engine: "ClusterEngine") -> None:
        self.plan = plan
        self.engine = engine
        cluster = engine.cluster
        seed = engine.config.seed
        n = cluster.n_workers
        p = plan.params
        #: Flat liveness column, indexed by worker id (1 = dead).
        self.dead = bytearray(n)
        #: Per-worker execution-time multiplier (1.0 = healthy).
        self.slowdown = array("d", [1.0]) * n
        if plan.stragglers_active:
            rng = make_rng(seed, "faults-straggler")
            count = min(n - 1, int(round(n * p["straggler_fraction"])))
            factor = p["straggler_slowdown"]
            for wid in sorted(sample_without_replacement(rng, n, count)):
                self.slowdown[wid] = factor
        #: ``(time, worker_id)`` crash events, time-ordered.  Worker 0 is
        #: exempt so the general partition always keeps one live node.
        self.crash_schedule: tuple[tuple[float, int], ...] = ()
        if plan.crashes_active and n > 1:
            rng = make_rng(seed, "faults-crash")
            count = min(n - 1, int(round(n * p["crash_fraction"])))
            victims = [
                wid + 1 for wid in sample_without_replacement(rng, n - 1, count)
            ]
            start = p["crash_start"]
            window = p["crash_window"]
            times = [start + window * float(rng.random()) for _ in victims]
            self.crash_schedule = tuple(
                sorted(zip(times, victims))
            )
        self.outage: tuple[float, float] | None = None
        if plan.outage_active:
            start = p["central_outage_start"]
            self.outage = (start, start + p["central_outage_duration"])
        self.messages_active = plan.messages_active
        self._msg_rng = make_rng(seed, "faults-msg")
        self._redist_rng = make_rng(seed, "faults-redistribute")
        self._msg_loss = p["msg_loss"]
        self._retransmit = p["retransmit_delay"]
        self._extra_prob = p["msg_extra_delay_prob"]
        self._extra = p["msg_extra_delay"]
        self.detect_delay = p["detect_delay"]
        self.restart_delay = p["restart_delay"]
        # Observability counters (fault runs only; not part of RunResult).
        self.crashes = 0
        self.restarts = 0
        self.tasks_requeued = 0

    # ------------------------------------------------------------------
    def schedule(self) -> None:
        """Arm every planned fault on the engine's simulation clock."""
        engine = self.engine
        sim = engine.sim
        for time, worker_id in self.crash_schedule:
            sim.schedule_at(time, engine._worker_crash, worker_id)
        if self.outage is not None:
            start, end = self.outage
            sim.schedule_at(start, engine._centralized_outage_begins)
            sim.schedule_at(end, engine._centralized_outage_ends)

    # ------------------------------------------------------------------
    def perturb_delay(self, delay: float) -> float:
        """Apply message loss/extra-delay faults to one message delay.

        Loss is modeled as retransmission: each lost attempt adds
        ``retransmit_delay`` and is re-drawn, so delivery is guaranteed
        and the perturbation is a deterministic function of the message
        stream's draw order.
        """
        rng = self._msg_rng
        loss = self._msg_loss
        if loss > 0.0:
            while float(rng.random()) < loss:
                delay += self._retransmit
        if self._extra_prob > 0.0 and float(rng.random()) < self._extra_prob:
            delay += self._extra
        return delay

    def pick_live_target(self, is_long: bool) -> int:
        """A live worker to receive redistributed work.

        Long entries stay inside the general partition (the invariant
        every policy preserves); short entries may land anywhere.  Drawn
        from the dedicated redistribution stream; rejection-samples the
        dead set with a deterministic linear-scan fallback.
        """
        from repro.cluster.cluster import Partition

        cluster = self.engine.cluster
        ids = cluster.ids(Partition.GENERAL if is_long else Partition.ALL)
        dead = self.dead
        rng = self._redist_rng
        n = len(ids)
        for _ in range(64):
            wid = ids[int(rng.integers(0, n))]
            if not dead[wid]:
                return wid
        for wid in ids:  # pragma: no cover - 64 straight dead draws
            if not dead[wid]:
                return wid
        return ids[0]  # pragma: no cover - worker 0 is never crashed

    def requeue_task(self, task: "Task") -> None:
        """Count and reset one lost task for re-execution."""
        task.reset_for_retry()
        self.tasks_requeued += 1
