"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Simulation, SimulationError


def test_clock_starts_at_zero():
    assert Simulation().now == 0.0


def test_clock_custom_start():
    assert Simulation(start_time=5.0).now == 5.0


def test_schedule_and_run_single_event():
    sim = Simulation()
    fired = []
    sim.schedule(3.0, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 3.0


def test_events_fire_in_time_order():
    sim = Simulation()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.run()
    assert fired == ["early", "late"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulation()
    fired = []
    for i in range(10):
        sim.schedule(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_same_time_fifo_across_both_schedule_paths():
    """The FIFO contract holds across plain and revocable entries."""
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, "plain-0")
    sim.schedule_cancellable(1.0, fired.append, "cancellable-1")
    sim.schedule(1.0, fired.append, "plain-2")
    sim.schedule_cancellable(1.0, fired.append, "cancellable-3")
    sim.run()
    assert fired == ["plain-0", "cancellable-1", "plain-2", "cancellable-3"]


def test_schedule_negative_delay_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_cancellable_negative_delay_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.schedule_cancellable(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulation()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


NAN = float("nan")


def test_nan_times_are_rejected_by_every_schedule_path():
    sim = Simulation()
    fired = []
    sim.schedule(0.5, fired.append, "a")
    sim.schedule(1.0, fired.append, "b")
    with pytest.raises(SimulationError):
        sim.schedule(NAN, fired.append, "nan")
    with pytest.raises(SimulationError):
        sim.schedule_at(NAN, fired.append, "nan")
    with pytest.raises(SimulationError):
        sim.schedule_cancellable(NAN, fired.append, "nan")
    cell = sim.schedule_cancellable(0.25, fired.append, "cell")
    sim.run(until=0.25)
    with pytest.raises(SimulationError):
        sim.reschedule_fired(cell, NAN)
    sim.run()
    assert fired == ["cell", "a", "b"]
    assert sim.now == 1.0


def test_cancelled_event_does_not_fire():
    sim = Simulation()
    fired = []
    cell = sim.schedule_cancellable(1.0, fired.append, "x")
    cell.clear()
    sim.run()
    assert fired == []
    assert sim.events_fired == 0


def test_cancel_is_idempotent():
    sim = Simulation()
    cell = sim.schedule_cancellable(1.0, lambda: None)
    cell.clear()
    cell.clear()
    sim.run()
    assert sim.events_fired == 0


@pytest.mark.parametrize("until", [None, 5.0])
def test_revoked_last_entry_leaves_no_trace(until):
    """A revoked entry at the end of the heap neither fires, counts nor
    moves the clock: the run ends as if it was never scheduled."""
    runs = []
    for revoked in (False, True):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        if revoked:
            sim.schedule_cancellable(3.0, lambda: None).clear()
        sim.run(until=until)
        runs.append((sim.now, sim.events_fired, sim.pending_events))
    assert runs[0] == runs[1] == [(1.0, 1, 0), (5.0, 1, 0)][until is not None]


def test_events_can_schedule_new_events():
    sim = Simulation()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_zero_delay_event_fires_at_current_time():
    sim = Simulation()
    times = []
    sim.schedule(5.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [5.0]


def test_run_until_stops_before_later_events():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run(until=5.0)
    assert fired == ["a"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_is_inclusive():
    sim = Simulation()
    fired = []
    sim.schedule(5.0, fired.append, "edge")
    sim.run(until=5.0)
    assert fired == ["edge"]


def test_run_until_advances_clock_when_no_events():
    sim = Simulation()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_before_now_is_rejected():
    """The clock never runs backwards, so neither can a later slice."""
    sim = Simulation()
    sim.schedule(10.0, lambda: None)
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=2.0)
    assert sim.now == 5.0
    with pytest.raises(SimulationError):
        sim.schedule_at(3.0, lambda: None)
    sim.run(until=5.0)  # an empty slice at the current time is fine
    sim.run()
    assert (sim.now, sim.events_fired) == (10.0, 1)


def test_run_until_nan_is_rejected():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    with pytest.raises(SimulationError):
        sim.run(until=NAN)
    assert fired == []
    assert sim.now == 0.0
    sim.run()  # the refused call left the loop usable
    assert fired == ["a"]


def test_run_until_fires_cancellable_events():
    sim = Simulation()
    fired = []
    sim.schedule_cancellable(1.0, fired.append, "live")
    sim.schedule_cancellable(2.0, fired.append, "dead").clear()
    sim.run(until=5.0)
    assert fired == ["live"]
    assert sim.now == 5.0


def test_max_events_budget_raises():
    sim = Simulation()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=100)


def test_max_events_budget_counts_logical_events():
    """A batched delivery spends its full logical count of the budget."""
    sim = Simulation()

    def batch_of(k):
        sim.add_logical_events(k - 1)
        sim.schedule(1.0, batch_of, k)

    sim.schedule(1.0, batch_of, 10)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=100)
    # 100-event budget, 10 logical events per pop: ~10 pops, not 100.
    assert sim.events_fired <= 110


def test_events_fired_counts_only_executed():
    sim = Simulation()
    sim.schedule(1.0, lambda: None)
    cell = sim.schedule_cancellable(2.0, lambda: None)
    cell.clear()
    sim.run()
    assert sim.events_fired == 1


def test_add_logical_events_counts_batched_deliveries():
    sim = Simulation()
    sim.schedule(1.0, sim.add_logical_events, 4)
    sim.run()
    assert sim.events_fired == 5  # one pop, five logical deliveries


def test_run_not_reentrant():
    sim = Simulation()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_pending_events_counts_heap_entries():
    sim = Simulation()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2


def test_compaction_during_run_keeps_later_events():
    """Revoking every pending timer from a callback mid-run() leaves the
    event loop on the live heap: events scheduled afterwards still fire,
    in order, and the revoked entries drain without moving the clock."""
    sim = Simulation()
    fired = []
    cells = [sim.schedule_cancellable(50.0, fired.append, "dead") for _ in range(64)]

    def revoke_everything_then_chain():
        for cell in cells:
            cell.clear()
        sim.schedule(1.0, fired.append, "after-revoke")
        sim.schedule_cancellable(2.0, fired.append, "cancellable-after")

    sim.schedule(1.0, revoke_everything_then_chain)
    sim.run()
    assert fired == ["after-revoke", "cancellable-after"]
    assert sim.pending_events == 0
    assert sim.now == 3.0


def test_compaction_preserves_live_events_and_order():
    """Revoking every other timer leaves the rest firing in time order."""
    sim = Simulation()
    fired = []
    cells = [
        sim.schedule_cancellable(float(i), fired.append, i) for i in range(20)
    ]
    for cell in cells[::2]:
        cell.clear()
    sim.run()
    assert fired == list(range(1, 20, 2))


def test_callback_args_are_passed():
    sim = Simulation()
    got = []
    sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "two")
    sim.run()
    assert got == [(1, "two")]


def test_interleaved_schedule_and_run_preserve_order():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.run()
    sim.schedule(1.0, fired.append, 2)
    sim.run()
    assert fired == [1, 2]
    assert sim.now == 2.0


def test_large_event_volume_ordering():
    sim = Simulation()
    fired = []
    import random

    rng = random.Random(7)
    times = [rng.uniform(0, 100) for _ in range(2000)]
    for t in times:
        sim.schedule(t, fired.append, t)
    sim.run()
    assert fired == sorted(times)


# -- reschedule_fired (cell reuse on the retry hot path) --------------------
def test_reschedule_fired_rearms_a_fired_handle():
    sim = Simulation()
    fired = []
    cell = sim.schedule_cancellable(1.0, fired.append, "first")
    sim.run(until=1.0)
    assert fired == ["first"]
    # reuse the popped cell for a second firing at a later time
    sim.reschedule_fired(cell, 2.0)
    assert sim.next_event_time == 3.0
    sim.run(until=5.0)
    assert fired == ["first", "first"]  # same callback and args fire again


def test_reschedule_fired_negative_delay_rejected():
    sim = Simulation()
    cell = sim.schedule_cancellable(1.0, lambda *_: None)
    sim.run(until=1.0)
    with pytest.raises(SimulationError):
        sim.reschedule_fired(cell, -0.5)


def test_reschedule_fired_preserves_event_order_and_cancel():
    sim = Simulation()
    fired = []
    cell = sim.schedule_cancellable(1.0, fired.append, "reused")
    sim.run(until=1.0)
    # a re-armed cell interleaves with fresh events in (time, seq) order
    sim.schedule(1.0, fired.append, "before")
    sim.reschedule_fired(cell, 1.0)
    sim.schedule(1.0, fired.append, "after")
    sim.run(until=2.0)
    assert fired == ["reused", "before", "reused", "after"]
    # a re-armed cell can still be revoked like a fresh one
    sim.reschedule_fired(cell, 1.0)
    cell.clear()
    sim.run(until=10.0)
    assert fired == ["reused", "before", "reused", "after"]
    assert (sim.now, sim.events_fired) == (10.0, 4)


def test_run_restores_gc_state():
    import gc

    sim = Simulation()
    sim.schedule(1.0, lambda: None)
    assert gc.isenabled()
    sim.run()  # disables the collector for the loop, restores after
    assert gc.isenabled()
    gc.disable()
    try:
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert not gc.isenabled()  # left alone when the caller disabled it
    finally:
        gc.enable()


# -- the next-event slot fires in heap order (property) ----------------------
DELAYS = (0.0, 0.5, 1.0, 2.0)  # exact binary sums, so equal times are common

OPERATION = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(DELAYS)),
    st.tuples(st.just("schedule_at"), st.sampled_from(DELAYS)),
    st.tuples(st.just("cancellable"), st.sampled_from(DELAYS)),
    st.tuples(st.just("clear"), st.integers(0, 7)),
    st.tuples(st.just("rearm"), st.integers(0, 7), st.sampled_from(DELAYS)),
)
PROGRAM = st.fixed_dictionaries(
    {
        # Issued before run(), then by the n-th callback to fire.
        "initial": st.lists(OPERATION, min_size=1, max_size=8),
        "nested": st.lists(st.lists(OPERATION, max_size=4), max_size=24),
    }
)


class SlotModel:
    """Drives a program on a Simulation beside a reference list of entries.

    The reference holds every entry not yet popped as ``[time, seq, ident,
    revoked]``.  A live entry fires when the loop reaches its key; a
    revoked one is dropped once a later key fires (or, between slices,
    once a later live key is next).
    """

    def __init__(self, program):
        self.sim = Simulation()
        self.program = program
        self.pending = []
        self.scheduled = {}  # (time, seq) -> revoked, for every entry
        self.fired = []
        self.cells = []  # [cell, ident, state]: pending, fired or revoked
        self.seq = 0
        self.next_ident = 0

    def _enter(self, time, ident):
        entry = [time, self.seq, ident, False]
        self.seq += 1
        self.pending.append(entry)
        self.scheduled[(entry[0], entry[1])] = False
        return entry

    def _entry_of(self, ident):
        return next(e for e in self.pending if e[2] == ident)

    def apply(self, op):
        sim = self.sim
        kind = op[0]
        if kind in ("schedule", "schedule_at", "cancellable"):
            ident = self.next_ident
            self.next_ident += 1
            time = sim.now + op[1]
            if kind == "schedule":
                sim.schedule(op[1], self.fire, ident)
            elif kind == "schedule_at":
                sim.schedule_at(time, self.fire, ident)
            else:
                cell = sim.schedule_cancellable(op[1], self.fire, ident)
                self.cells.append([cell, ident, "pending"])
            self._enter(time, ident)
        elif kind == "clear" and self.cells:
            record = self.cells[op[1] % len(self.cells)]
            record[0].clear()
            if record[2] == "pending":
                entry = self._entry_of(record[1])
                entry[3] = True
                self.scheduled[(entry[0], entry[1])] = True
            record[2] = "revoked"
        elif kind == "rearm":
            fired = [c for c in self.cells if c[2] == "fired"]
            if fired:
                record = fired[op[1] % len(fired)]
                sim.reschedule_fired(record[0], op[2])
                self._enter(sim.now + op[2], record[1])
                record[2] = "pending"

    def _drop_revoked_below(self, key):
        self.pending = [e for e in self.pending if (e[0], e[1]) >= key or not e[3]]

    def check_pending(self):
        sim = self.sim
        assert sim.pending_events == len(self.pending)
        expected = min((e[0] for e in self.pending), default=None)
        assert sim.next_event_time == expected

    def fire(self, ident):
        entry = self._entry_of(ident)
        key = (entry[0], entry[1])
        assert not entry[3]
        assert self.sim.now == entry[0]
        if self.fired:
            assert self.fired[-1] < key
        self.fired.append(key)
        self.pending.remove(entry)
        self._drop_revoked_below(key)
        self.check_pending()
        for record in self.cells:
            if record[1] == ident:
                record[2] = "fired"
        index = len(self.fired) - 1
        if index < len(self.program["nested"]):
            for op in self.program["nested"][index]:
                self.apply(op)

    def check_between_slices(self):
        live = [(e[0], e[1]) for e in self.pending if not e[3]]
        if live:
            self._drop_revoked_below(min(live))
        else:
            self.pending = []
        self.check_pending()

    def check_done(self):
        assert self.sim.pending_events == 0
        assert self.sim.next_event_time is None
        assert len(self.fired) == len(set(self.fired))
        assert set(self.fired) == {k for k, rev in self.scheduled.items() if not rev}
        assert self.sim.events_fired == len(self.fired)


@settings(max_examples=300, deadline=None)
@given(
    PROGRAM,
    st.sampled_from(["run", "until", "max_events"]),
    st.lists(st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.5, 4.0)), max_size=6),
    st.integers(1, 4),
)
def test_slot_fires_in_heap_order(program, driver, untils, budget):
    """Whatever mix of plain, revocable and re-armed entries is pending,
    entries fire once each in strictly ascending (time, seq) order, and
    pending_events / next_event_time read the reference list's count and
    minimum time, under every run-loop driver."""
    model = SlotModel(program)
    sim = model.sim
    for op in program["initial"]:
        model.apply(op)
    model.check_pending()
    if driver == "until":
        for until in sorted(untils):
            sim.run(until=max(until, sim.now))
            model.check_between_slices()
    elif driver == "max_events":
        while True:
            try:
                sim.run(max_events=budget)
                break
            except SimulationError:
                model.check_between_slices()
    sim.run()
    model.check_done()
