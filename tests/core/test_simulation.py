"""Tests for the discrete-event engine."""

import pytest

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
    """The FIFO contract holds across plain and cancellable entries."""
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
    handle = sim.schedule_cancellable(0.25, fired.append, "handle")
    sim.run(until=0.25)
    with pytest.raises(SimulationError):
        sim.reschedule_fired(handle, NAN)
    sim.run()
    assert fired == ["handle", "a", "b"]
    assert sim.now == 1.0


def test_cancelled_event_does_not_fire():
    sim = Simulation()
    fired = []
    handle = sim.schedule_cancellable(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert sim.events_fired == 0


def test_cancel_is_idempotent():
    sim = Simulation()
    handle = sim.schedule_cancellable(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert sim.events_fired == 0


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


def test_run_until_fires_cancellable_events():
    sim = Simulation()
    fired = []
    sim.schedule_cancellable(1.0, fired.append, "live")
    sim.schedule_cancellable(2.0, fired.append, "dead").cancel()
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
    handle = sim.schedule_cancellable(2.0, lambda: None)
    handle.cancel()
    sim.run()
    assert sim.events_fired == 1


def test_add_logical_events_counts_batched_deliveries():
    sim = Simulation()
    sim.schedule(1.0, sim.add_logical_events, 4)
    sim.run()
    assert sim.events_fired == 5  # one pop, five logical deliveries


def test_step_fires_one_event():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert sim.step() is False
    assert fired == ["a", "b"]


def test_step_skips_cancelled_events():
    sim = Simulation()
    fired = []
    sim.schedule_cancellable(1.0, fired.append, "a").cancel()
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["b"]


def test_step_fires_cancellable_events():
    sim = Simulation()
    fired = []
    sim.schedule_cancellable(1.0, fired.append, "a")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.events_fired == 1


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


def test_cancelled_entries_compact_when_they_dominate():
    """Cancelled handles may not grow the heap without bound (park/wake
    churn used to accumulate them until their timestamps drained)."""
    sim = Simulation()
    sim.schedule(1000.0, lambda: None)  # one live far-future event
    for _ in range(500):
        sim.schedule_cancellable(999.0, lambda: None).cancel()
    # Lazy compaction keeps the heap bounded by ~2x the live entries.
    assert sim.pending_events <= 3
    sim.run()
    assert sim.events_fired == 1
    assert sim.now == 1000.0


def test_compaction_during_run_keeps_later_events():
    """Regression: compaction triggered by a callback mid-run() must not
    strand the event loop on a stale heap — events scheduled after the
    compaction still fire, in order."""
    sim = Simulation()
    fired = []
    handles = [sim.schedule_cancellable(50.0, fired.append, "dead") for _ in range(64)]

    def cancel_everything_then_chain():
        for handle in handles:
            handle.cancel()  # crosses the compaction threshold mid-run
        sim.schedule(1.0, fired.append, "after-compaction")
        sim.schedule_cancellable(2.0, fired.append, "cancellable-after")

    sim.schedule(1.0, cancel_everything_then_chain)
    sim.run()
    assert fired == ["after-compaction", "cancellable-after"]
    assert sim.pending_events == 0
    assert sim.now == 3.0


def test_compaction_during_step_keeps_later_events():
    sim = Simulation()
    fired = []
    handles = [sim.schedule_cancellable(50.0, fired.append, "dead") for _ in range(64)]
    sim.schedule(1.0, lambda: [h.cancel() for h in handles])
    sim.schedule(2.0, fired.append, "later")
    assert sim.step() is True  # fires the mass-cancel (compacts)
    assert sim.step() is True
    assert fired == ["later"]
    assert sim.step() is False


def test_compaction_preserves_live_events_and_order():
    sim = Simulation()
    fired = []
    handles = [
        sim.schedule_cancellable(float(i), fired.append, i) for i in range(20)
    ]
    for handle in handles[::2]:
        handle.cancel()  # triggers several compactions along the way
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


# -- reschedule_fired (handle reuse on the retry hot path) ------------------
def test_reschedule_fired_rearms_a_fired_handle():
    sim = Simulation()
    fired = []
    handle = sim.schedule_cancellable(1.0, fired.append, "first")
    sim.run(until=1.0)
    assert fired == ["first"]
    # reuse the popped handle for a second firing at a later time
    sim.reschedule_fired(handle, 2.0)
    assert handle.time == 3.0
    sim.run(until=5.0)
    assert fired == ["first", "first"]  # same callback and args fire again


def test_reschedule_fired_negative_delay_rejected():
    sim = Simulation()
    handle = sim.schedule_cancellable(1.0, lambda *_: None)
    sim.run(until=1.0)
    with pytest.raises(SimulationError):
        sim.reschedule_fired(handle, -0.5)


def test_reschedule_fired_preserves_event_order_and_cancel():
    sim = Simulation()
    fired = []
    handle = sim.schedule_cancellable(1.0, fired.append, "reused")
    sim.run(until=1.0)
    # re-armed handle interleaves with fresh events in (time, seq) order
    sim.schedule(1.0, fired.append, "before")
    sim.reschedule_fired(handle, 1.0)
    sim.schedule(1.0, fired.append, "after")
    sim.run(until=2.0)
    assert fired == ["reused", "before", "reused", "after"]
    # a re-armed handle can still be cancelled like a fresh one
    sim.reschedule_fired(handle, 1.0)
    handle.cancel()
    sim.run(until=10.0)
    assert fired == ["reused", "before", "reused", "after"]


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
