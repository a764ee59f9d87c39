"""Minimal, fast discrete-event simulation engine.

The engine is a binary heap of timestamped callbacks.  Determinism matters
more than raw speed for a reproduction: two events scheduled for the same
timestamp always fire in the order they were scheduled (a monotonically
increasing sequence number breaks ties), so a fixed seed produces a
bit-identical run.

Heap entries are ``(time, seq, callback, args)`` tuples, so ordering is a
C-level tuple comparison on ``(time, seq)`` (seqs are unique, so
comparisons never reach the callback).  Two scheduling paths share the
heap:

* :meth:`Simulation.schedule` / :meth:`Simulation.schedule_at` — the
  plain entry, for the non-revocable majority of events.
* :meth:`Simulation.schedule_cancellable` — a revocable entry
  ``(time, seq, None, cell)`` whose ``cell`` is the list
  ``[callback, args]``.  ``cell.clear()`` revokes it: the event loop
  drops an empty cell on pop without firing it, counting it or moving
  the clock.  Revoked entries stay on the heap until their time comes;
  the one user (work-stealing retry timers) revokes timers at most one
  backoff window out, so they drain on their own.

A one-entry *next slot* sits in front of the heap.  An entry scheduled
through :meth:`Simulation.schedule` / :meth:`Simulation.schedule_at` that
is due before everything pending waits in the slot instead of the heap,
and both run loops take the slot before they pop the heap.  The invariant
is that the slot holds an entry only while its ``(time, seq)`` key is
below the key of every heap entry.  A new entry always carries the
largest ``seq`` so far, so each decision compares times alone, and an
equal time always goes to the heap (FIFO on ties).  The revocable paths
never fill the slot; they only move a slotted entry into the heap when
they schedule something earlier.  Entries therefore still fire in
ascending key order, exactly as from the heap alone: the slot changes
how many heap operations a run pays, never which event fires next.
With a uniform network delay, a message's arrival is usually the next
event when it is sent, so most message traffic skips the heap.

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
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.core.errors import SimulationError


# The event loop churns through millions of short-lived tuples, cells, and
# windows whose lifetimes the cycle collector cannot shorten (refcounting
# frees them); its periodic generation scans only add overhead.  The same
# holds for a batch run's job materialization and result build: bulk
# allocations that build no cycles.  Each runs with the collector
# suspended.
@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cycle collector for the block if it is on.

    On exit, normal or not, the collector is re-enabled only if it was on
    at entry, so nested pauses and callers that keep it off compose.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Simulation:
    """A discrete-event simulation clock and event heap."""

    __slots__ = ("_now", "_heap", "_next", "_seq", "_events_fired", "_running")

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # (time, seq, callback, args) for plain events;
        # (time, seq, None, [callback, args]) for revocable ones.
        self._heap: list[tuple] = []
        # A plain entry keyed below every heap entry, or None (see the
        # module docstring).
        self._next: tuple | None = None
        self._seq = 0
        self._events_fired = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Logical events executed so far (revoked events excluded)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of pending entries, including revoked ones."""
        return len(self._heap) + (self._next is not None)

    @property
    def next_event_time(self) -> float | None:
        """Timestamp of the earliest pending entry, or ``None``.

        Revoked entries are not skipped, so the value is a lower bound
        on the next *firing* time — exactly what an online driver needs
        to size its sleep before the next :meth:`run` slice.
        """
        entry = self._next
        if entry is None:
            heap = self._heap
            if not heap:
                return None
            entry = heap[0]
        time: float = entry[0]
        return time

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        # Negated so that a NaN delay (every comparison false) is refused.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule event in the past: delay={delay}")
        time = self._now + delay
        entry = (time, self._seq, callback, args)
        self._seq += 1
        # The slot rules, inlined (a helper call costs more than it saves).
        slotted = self._next
        if slotted is None:
            heap = self._heap
            if not heap or time < heap[0][0]:
                self._next = entry
            else:
                heapq.heappush(heap, entry)
        elif time < slotted[0]:
            heapq.heappush(self._heap, slotted)
            self._next = entry
        else:
            heapq.heappush(self._heap, entry)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` to fire at absolute ``time``."""
        if not time >= self._now:  # NaN-safe, as in schedule()
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        entry = (time, self._seq, callback, args)
        self._seq += 1
        slotted = self._next  # the slot rules, as in schedule()
        if slotted is None:
            heap = self._heap
            if not heap or time < heap[0][0]:
                self._next = entry
            else:
                heapq.heappush(heap, entry)
        elif time < slotted[0]:
            heapq.heappush(self._heap, slotted)
            self._next = entry
        else:
            heapq.heappush(self._heap, entry)

    def schedule_cancellable(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> list[Any]:
        """Like :meth:`schedule`, but returns the entry's revocable cell.

        The cell is the list ``[callback, args]``; ``cell.clear()``
        revokes the event (clearing an already revoked cell is a no-op).
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule event in the past: delay={delay}")
        cell: list[Any] = [callback, args]
        time = self._now + delay
        # Revocable entries never fill the slot; an earlier one only
        # moves the slotted entry into the heap to keep the invariant.
        slotted = self._next
        if slotted is not None and time < slotted[0]:
            heapq.heappush(self._heap, slotted)
            self._next = None
        heapq.heappush(self._heap, (time, self._seq, None, cell))
        self._seq += 1
        return cell

    def reschedule_fired(self, cell: list[Any], delay: float) -> None:
        """Re-arm a cell whose event has already fired.

        Hot-path variant of :meth:`schedule_cancellable` that reuses the
        cell instead of allocating a fresh one (work-stealing retry timers
        re-arm hundreds of thousands of times per run).  The caller must
        guarantee the cell's previous heap entry was popped because it
        *fired* — a revoked cell is empty and must not be re-armed.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule event in the past: delay={delay}")
        time = self._now + delay
        slotted = self._next  # as in schedule_cancellable()
        if slotted is not None and time < slotted[0]:
            heapq.heappush(self._heap, slotted)
            self._next = None
        seq = self._seq
        heapq.heappush(self._heap, (time, seq, None, cell))
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
    # Event loop.
    # ------------------------------------------------------------------
    def run(
        self, until: float | None = None, max_events: int | None = None
    ) -> None:
        """Run until nothing is pending, ``until`` is reached, or the budget ends.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire.
        ``max_events`` guards against runaway simulations and raises
        :class:`SimulationError` when exhausted; it counts logical events,
        so a batched delivery of ``k`` messages spends ``k`` of the budget.
        An ``until`` before the current time (or NaN) is refused: the
        clock never runs backwards.
        """
        if self._running:
            raise SimulationError("Simulation.run() is not reentrant")
        if until is not None and not until >= self._now:  # NaN-safe
            raise SimulationError(
                f"cannot run until t={until} before now={self._now}"
            )
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        with collector_paused():  # see collector_paused for why
            try:
                if until is None and max_events is None:
                    # Fast path: the engine's production configuration.
                    while True:
                        slotted = self._next
                        if slotted is not None:  # always a plain entry
                            self._next = None
                            time, _, callback, args = slotted
                        elif heap:
                            time, _, callback, args = heappop(heap)
                            if callback is None:
                                if not args:  # revoked
                                    continue
                                callback, args = args
                        else:
                            break
                        self._now = time
                        self._events_fired += 1
                        callback(*args)
                    return
                base = self._events_fired
                while True:
                    slotted = self._next
                    if slotted is not None:
                        time, _, callback, args = slotted
                    elif heap:
                        time, _, callback, args = heap[0]
                        if callback is None and not args:  # revoked
                            heappop(heap)
                            continue
                    else:
                        break
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
                    if slotted is not None:
                        self._next = None
                    else:
                        heappop(heap)
                    if callback is None:
                        callback, args = args
                    self._now = time
                    self._events_fired += 1
                    callback(*args)
                if until is not None and until > self._now:
                    self._now = until
            finally:
                self._running = False
