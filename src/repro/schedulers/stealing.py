"""Randomized work stealing (Section 3.6).

Whenever a server runs out of work it contacts up to ``cap`` (default 10)
randomly chosen servers and steals the first consecutive group of short
entries queued behind a long entry from the first victim that has one.
Both general- and short-partition servers steal, but only servers in the
*general* partition can be victims — that is where long tasks cause
head-of-line blocking.

The paper's simulator assigns zero cost to stealing (Section 4.1).  With
zero-cost rounds, a purely transition-triggered policy would let a server
that went idle *before* blocked work appeared stay idle forever, so the
policy retries with exponential backoff while a server remains idle.  The
backoff bounds the event overhead of retries in lightly loaded clusters
(where stealing is irrelevant) while preserving the paper's randomized
pull semantics, including the cap sensitivity of Figure 15.

A server whose round fails while nothing in the whole cluster is
stealable parks instead of backing off.  The parked set is an
insertion-ordered dict, so a wake takes the most recently parked servers
first.  Every entry point into a round — a server going idle, its retry
timer firing, a wake — goes through one round-or-back-off step
(:meth:`WorkStealing._round_or_back_off`).  A retry timer is a revocable
heap cell (:meth:`~repro.core.simulation.Simulation.schedule_cancellable`):
going idle revokes it, and a timer that fires re-arms its own cell.

Flat-array hot loop
-------------------
A stealing-heavy run executes hundreds of thousands of rounds, nearly all
of which probe ``cap`` victims and fail.  Two structures make the failing
round cheap without touching ``Worker`` objects or changing a single
observable draw:

* **Buffered victim draws.**  ``Random.getrandbits(32 * k)`` consumes
  exactly the same ``k`` MT19937 output words as ``k`` scalar
  ``getrandbits(bits)`` calls (one 32-bit word each, assembled
  little-endian), so the policy prefetches a chunk, extracts each word's
  top ``bits`` via numpy, and serves the draws in order — draw-for-draw
  identical to the per-call loop.  Out-of-range draws (``>= n``) are
  dropped at refill time: the scalar loop rejects them unconditionally,
  before any thief- or duplicate-dependent test, so no round can observe
  them.
* **Flat eligibility bitmap.**  ``Cluster.steal_flags`` mirrors each
  general worker's steal hint (exact, PR 1: hint ⇔ an eligible range
  exists), maintained by the engine's hint sync.  A round whose next
  ``cap`` buffered draws are pairwise distinct, miss the thief, and all
  index zero bytes of the bitmap is *proven* to fail: it consumes the
  draws and updates the counters as a block.  Any other round falls
  back to the exact per-draw loop.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.records import StealingStats
from repro.cluster.worker import Worker, WorkerState
from repro.core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.cluster.engine import ClusterEngine

_IDLE = WorkerState.IDLE


class WorkStealing:
    """Randomized stealing with idle-retry backoff.

    Parameters
    ----------
    cap:
        Maximum number of random servers contacted per stealing round
        (the x-axis of Figure 15; default 10 per Section 4.1).
    """

    #: Backoff window for re-attempting while idle, in simulated seconds:
    #: the first retry waits ``RETRY_INITIAL``, each failure doubles the
    #: wait, up to ``RETRY_MAX``.
    RETRY_INITIAL = 1.0
    RETRY_MAX = 64.0

    #: Upper bound on parked workers woken per work-appearance event; the
    #: first wake that succeeds flips the hint tally back to zero and the
    #: rest fail in O(1), so a small constant keeps fidelity and bounds cost.
    WAKE_LIMIT = 64

    #: 32-bit Mersenne words drawn per victim-buffer refill.
    REFILL_WORDS = 4096

    def __init__(self, cap: int = 10) -> None:
        if cap < 1:
            raise ConfigurationError(f"steal cap must be >= 1, got {cap}")
        self.cap = cap
        self.engine: "ClusterEngine | None" = None
        self._rng: random.Random | None = None
        self._getrandbits = None  # bound rng.getrandbits, set in bind()
        self._victim_bits = 1
        self._n_general = 0
        # Victim-draw buffer (see module docstring).  ``_buf`` holds the
        # in-range draws still to be served, ``_pos`` the next index.
        self._window = 0
        self._buf: list[int] = []
        self._pos = 0
        # Bind-time caches for the per-round hot path.
        self._cluster: "Cluster | None" = None
        self._flags: bytearray = bytearray()
        self._flags_get = self._flags.__getitem__
        self._workers: list[Worker] = []
        # Parked workers by id, in parking order (a wake pops the newest).
        self._parked: dict[int, Worker] = {}
        self._rounds = 0
        self._successes = 0
        self._victims_probed = 0
        self._entries_stolen = 0

    def bind(self, engine: "ClusterEngine") -> None:
        if self.engine is not None:
            raise RuntimeError("stealing policy bound twice")
        self.engine = engine
        # stdlib RNG: this is the hottest random stream in a run and
        # numpy's per-call scalar overhead dominates otherwise.  Victim
        # draws use the same rejection sampling as ``Random.randrange``
        # (see ``_randbelow_with_getrandbits``), consuming the Mersenne
        # stream identically — prefetched in chunks, since the draw width
        # of any cluster that can be built fits one 32-bit word.
        self._rng = random.Random(engine.config.seed ^ 0x5EA15EA1)
        self._getrandbits = self._rng.getrandbits
        n = engine.cluster.n_general
        self._n_general = n
        self._victim_bits = max(1, n).bit_length()
        # The proven-failure block requires every round to probe exactly
        # ``cap`` victims, which holds for both partitions when n > cap.
        self._window = self.cap if n > self.cap else 0
        self._cluster = engine.cluster
        self._flags = engine.cluster.steal_flags
        self._flags_get = self._flags.__getitem__
        self._workers = engine.cluster.workers

    # ------------------------------------------------------------------
    # Victim-draw buffer.
    # ------------------------------------------------------------------
    def _refill(self) -> None:
        """Extend the buffer with one chunk of prefetched victim draws."""
        words = self._getrandbits(32 * self.REFILL_WORDS)
        raw = np.frombuffer(
            words.to_bytes(4 * self.REFILL_WORDS, "little"), dtype="<u4"
        )
        ids = (raw >> np.uint32(32 - self._victim_bits)).astype(np.int64)
        valid = ids[ids < self._n_general]
        tail = self._buf[self._pos :]
        self._buf = tail + valid.tolist() if tail else valid.tolist()
        self._pos = 0

    # ------------------------------------------------------------------
    def on_worker_idle(self, worker: Worker) -> None:
        """One stealing round; schedules a backoff retry on failure."""
        self._parked.pop(worker.worker_id, None)
        cell = worker.pending_steal_retry
        if cell is not None:
            cell.clear()
            worker.pending_steal_retry = None
        self._round_or_back_off(worker, None)

    def _attempt_round(self, thief: Worker) -> bool:
        cluster = self._cluster
        assert cluster is not None
        # Fast fail: stealing needs a possibly-eligible general queue.
        if cluster.steal_hint_count == 0:
            return False
        n = self._n_general
        if n == 0 or (n == 1 and not thief.in_short_partition):
            return False
        self._rounds += 1
        w = self._window
        if w:
            pos = self._pos
            buf = self._buf
            end = pos + w
            if end > len(buf):
                self._refill()
                while len(self._buf) < w:  # pragma: no cover - 2^-4096
                    self._refill()
                pos = 0
                buf = self._buf
                end = w
            window = buf[pos:end]
            # Equivalent to: no draw is flagged, none equals the thief,
            # and all are pairwise distinct (the single set covers the
            # last two).  Pure condition — order is free.
            if (
                not any(map(self._flags_get, window))
                and len({thief.worker_id, *window}) == w + 1
            ):
                # Proven failure: the per-draw loop would probe exactly
                # these ``w`` distinct, hint-free victims and reject
                # each (the hint is exact, so flag 0 ⇒ nothing eligible).
                self._pos = end
                self._victims_probed += w
                return False
        return self._slow_round(thief, n)

    def _slow_round(self, thief: Worker, n: int) -> bool:
        """The exact per-draw round, served from the prefetch buffer."""
        engine = self.engine
        workers = self._workers
        thief_id = thief.worker_id
        attempts = min(self.cap, n - (0 if thief.in_short_partition else 1))
        probed = 0
        seen: set[int] = set()
        buf = self._buf
        pos = self._pos
        size = len(buf)
        while probed < attempts:
            if pos == size:
                self._pos = pos
                self._refill()
                buf = self._buf
                pos = 0
                size = len(buf)
                continue
            victim_id = buf[pos]
            pos += 1
            if victim_id == thief_id or victim_id in seen:
                continue
            seen.add(victim_id)
            probed += 1
            victim = workers[victim_id]
            # Cheap pre-filter (not a copy of the Figure-3 rule): a
            # victim with no queued short entries can never be eligible,
            # and that is the overwhelmingly common miss in this loop.
            # Eligibility itself stays in Worker.eligible_steal_range().
            if not victim._short_seqs:
                continue
            span = victim.eligible_steal_range()
            if span is None:
                continue
            self._pos = pos
            self._victims_probed += probed
            stolen = engine.transfer_stolen_entries(victim, thief, span[0], span[1])
            self._successes += 1
            self._entries_stolen += stolen
            return True
        self._pos = pos
        self._victims_probed += probed
        return False

    def _round_or_back_off(self, worker: Worker, cell: list | None) -> None:
        """One round; on failure back off (re-arming ``cell`` if given)."""
        if self._attempt_round(worker):
            worker.steal_backoff = 0.0
        else:
            self._schedule_retry(worker, cell)

    def _schedule_retry(self, worker: Worker, cell: list | None = None) -> None:
        """Back off and retry while idle; park when no steal can succeed.

        ``cell`` is the worker's retry cell that just fired, re-armed in
        place; without one a fresh revocable timer is scheduled.
        """
        engine = self.engine
        assert engine is not None
        if engine._done:
            return
        if engine.cluster.steal_hint_count == 0:
            # Nothing in the whole cluster is stealable: sleep until the
            # engine reports eligible work instead of polling.  Parking
            # ends the contention period, so the backoff ladder restarts
            # from RETRY_INITIAL at the next wake — without the reset a
            # woken worker resumed at its stale pre-park maximum.
            worker.steal_backoff = 0.0
            self._parked[worker.worker_id] = worker
            return
        backoff = worker.steal_backoff
        if backoff == 0.0:
            backoff = self.RETRY_INITIAL
        else:
            backoff *= 2.0
            if backoff > self.RETRY_MAX:
                backoff = self.RETRY_MAX
        worker.steal_backoff = backoff
        if cell is None:
            cell = engine.sim.schedule_cancellable(backoff, self._retry_fires, worker)
        else:
            engine.sim.reschedule_fired(cell, backoff)
        worker.pending_steal_retry = cell

    def _retry_fires(self, worker: Worker) -> None:
        # A live fire means the worker's pending cell is the one that just
        # popped, so re-arming it cannot alias an entry still on the heap.
        cell = worker.pending_steal_retry
        worker.pending_steal_retry = None
        engine = self.engine
        assert engine is not None
        if engine._done or worker.state is not _IDLE or worker.queue:
            return
        self._round_or_back_off(worker, cell)

    def on_worker_dead(self, worker: Worker) -> None:
        """Engine callback: fault injection crashed ``worker``.

        Drop it from the stealing machinery: revoke a pending retry and
        unpark it, so no wake can pick a dead worker.  Its steal hint is
        cleared by the engine's hint sync after the queue is drained, so
        it cannot be selected as a victim either.
        """
        cell = worker.pending_steal_retry
        if cell is not None:
            cell.clear()
            worker.pending_steal_retry = None
        self._parked.pop(worker.worker_id, None)

    def on_steal_work_appeared(self) -> None:
        """Engine callback: the cluster steal-hint tally went 0 -> 1.

        Wake up to :data:`WAKE_LIMIT` parked workers, most recently parked
        first.  Wakes are scheduled (not run inline) so the engine
        finishes its current transition before thieves inspect queues;
        the whole group rides one heap event (see :meth:`_wake_fires`).
        Every message leg pays the positive network delay, so no woken
        worker can bounce back to idle before the wake fires.
        """
        engine = self.engine
        assert engine is not None
        parked = self._parked
        if not parked or engine.all_jobs_done:
            return
        popitem = parked.popitem
        woken = [
            popitem()[1] for _ in range(min(self.WAKE_LIMIT, len(parked)))
        ]
        engine.sim.schedule(0.0, self._wake_fires, woken)

    def _wake_fires(self, woken: list[Worker]) -> None:
        """One batched wake: each entry is one logical wake event."""
        engine = self.engine
        assert engine is not None
        engine.sim.add_logical_events(len(woken) - 1)
        if engine._done:
            return
        for worker in woken:
            if worker.state is _IDLE and not worker.queue:
                self._round_or_back_off(worker, None)

    def stats(self) -> StealingStats:
        return StealingStats(
            rounds=self._rounds,
            successful_rounds=self._successes,
            victims_probed=self._victims_probed,
            entries_stolen=self._entries_stolen,
        )
