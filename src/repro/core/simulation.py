"""Minimal, fast discrete-event simulation engine.

The engine is a binary heap of timestamped callbacks.  Determinism matters
more than raw speed for a reproduction: two events scheduled for the same
timestamp always fire in the order they were scheduled (a monotonically
increasing sequence number breaks ties), so a fixed seed produces a
bit-identical run.

Two scheduling paths share one heap:

* :meth:`Simulation.schedule` / :meth:`Simulation.schedule_at` — the fast
  path for the non-cancellable majority of events.  Entries are plain
  ``(time, seq, callback, args)`` tuples: no per-event object allocation,
  and heap ordering stays a C-level tuple comparison on ``(time, seq)``
  (seqs are unique, so comparisons never reach the callback).
* :meth:`Simulation.schedule_cancellable` — returns an
  :class:`EventHandle` for the few events that may need to be revoked
  (e.g. work-stealing retry timers).  Cancelled entries are skipped on
  pop, and when they outnumber the live half of the heap the heap is
  compacted in place, so churny cancel-heavy phases cannot grow the heap
  without bound.

A *logical* event is one message arrival / timer firing of the modelled
system.  Transport-level batching (one heap pop delivering many
same-timestamp messages) keeps the logical count intact via
:meth:`add_logical_events`, so :attr:`events_fired` — and the
``max_events`` budget, which counts logical events — are invariant under
such batching.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable

from repro.core.errors import SimulationError


class EventHandle:
    """A cancellable scheduled callback.

    Instances are created by :meth:`Simulation.schedule_cancellable`; user
    code only ever needs :meth:`cancel` and the read-only attributes.
    Heap ordering is done on ``(time, seq)`` tuples (C-level comparisons),
    not on handles.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        sim: "Simulation",
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
    ) -> None:
        self._sim = sim
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call multiple times."""
        if not self.cancelled:
            self.cancelled = True
            self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulation:
    """A discrete-event simulation clock and event heap."""

    __slots__ = ("_now", "_heap", "_seq", "_events_fired", "_running", "_cancelled")

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # (time, seq, callback, args) for plain events;
        # (time, seq, None, EventHandle) for cancellable ones.
        self._heap: list[tuple] = []
        self._seq = 0
        self._events_fired = 0
        self._running = False
        self._cancelled = 0  # cancelled-but-unpopped handle entries

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Logical events executed so far (cancelled events excluded)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of entries still on the heap, including cancelled ones."""
        return len(self._heap)

    @property
    def next_event_time(self) -> float | None:
        """Timestamp of the earliest pending heap entry, or ``None``.

        Cancelled entries are not skipped, so the value is a lower bound
        on the next *firing* time — exactly what an online driver needs
        to size its sleep before the next :meth:`run` slice.
        """
        heap = self._heap
        if not heap:
            return None
        time: float = heap[0][0]
        return time

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        # Negated so that a NaN delay (every comparison false) is refused.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule event in the past: delay={delay}")
        heapq.heappush(self._heap, (self._now + delay, self._seq, callback, args))
        self._seq += 1

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` to fire at absolute ``time``."""
        if not time >= self._now:  # NaN-safe, as in schedule()
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        heapq.heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1

    def schedule_cancellable(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Like :meth:`schedule`, but returns a cancellation handle."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule event in the past: delay={delay}")
        time = self._now + delay
        handle = EventHandle(self, time, self._seq, callback, args)
        heapq.heappush(self._heap, (time, self._seq, None, handle))
        self._seq += 1
        return handle

    def reschedule_fired(self, handle: EventHandle, delay: float) -> None:
        """Re-arm a handle whose event has already fired.

        Hot-path variant of :meth:`schedule_cancellable` that reuses the
        handle object instead of allocating a fresh one (work-stealing
        retry timers re-arm hundreds of thousands of times per run).  The
        caller must guarantee the previous heap entry for ``handle`` was
        popped because it *fired* — a cancelled handle still has a stale
        entry on the heap and must not be reused.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule event in the past: delay={delay}")
        time = self._now + delay
        seq = self._seq
        handle.time = time
        handle.seq = seq
        heapq.heappush(self._heap, (time, seq, None, handle))
        self._seq = seq + 1

    def add_logical_events(self, n: int) -> None:
        """Count ``n`` extra logical events delivered by the current event.

        Called by transport-level batching (one heap pop standing in for
        ``n + 1`` same-timestamp message deliveries) so that
        :attr:`events_fired` and the ``max_events`` budget keep their
        batching-independent meaning.
        """
        self._events_fired += n

    # ------------------------------------------------------------------
    # Cancelled-entry bookkeeping.
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._cancelled += 1
        # Lazy compaction: once cancelled entries outnumber live ones,
        # rebuild the heap without them.  O(live) and amortized O(1) per
        # cancel, so churny park/cancel phases keep the heap bounded by
        # twice the live event count.
        if self._cancelled * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        # In place: run()/step() hold a reference to the heap list while
        # callbacks (which may cancel and trigger compaction) execute, so
        # rebinding self._heap here would strand their alias on a dead
        # list and silently drop every event scheduled afterwards.
        heap = self._heap
        heap[:] = [
            entry for entry in heap if entry[2] is not None or not entry[3].cancelled
        ]
        heapq.heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Event loop.
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns ``False`` if none remain."""
        heap = self._heap
        while heap:
            time, _, callback, args = heapq.heappop(heap)
            if callback is None:
                handle = args
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                callback, args = handle.callback, handle.args
            self._now = time
            self._events_fired += 1
            callback(*args)
            return True
        return False

    def run(
        self, until: float | None = None, max_events: int | None = None
    ) -> None:
        """Run until the heap drains, ``until`` is reached, or the budget ends.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire.
        ``max_events`` guards against runaway simulations and raises
        :class:`SimulationError` when exhausted; it counts logical events,
        so a batched delivery of ``k`` messages spends ``k`` of the budget.
        """
        if self._running:
            raise SimulationError("Simulation.run() is not reentrant")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        # The event loop churns through millions of short-lived tuples,
        # handles, and windows whose lifetimes the cycle collector cannot
        # shorten (refcounting frees them); its periodic generation scans
        # only add overhead.  Suspend it for the duration of the run.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if until is None and max_events is None:
                # Fast path: the engine's production configuration.
                while heap:
                    time, _, callback, args = heappop(heap)
                    if callback is None:
                        handle = args
                        if handle.cancelled:
                            self._cancelled -= 1
                            continue
                        callback, args = handle.callback, handle.args
                    self._now = time
                    self._events_fired += 1
                    callback(*args)
                return
            base = self._events_fired
            while heap:
                time, _, callback, args = heap[0]
                if callback is None and args.cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    self._now = until
                    return
                if (
                    max_events is not None
                    and self._events_fired - base >= max_events
                ):
                    raise SimulationError(
                        f"event budget exhausted after "
                        f"{self._events_fired - base} events at "
                        f"t={self._now:.3f}"
                    )
                heappop(heap)
                if callback is None:
                    callback, args = args.callback, args.args
                self._now = time
                self._events_fired += 1
                callback(*args)
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
