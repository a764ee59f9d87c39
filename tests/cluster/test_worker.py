"""Tests for worker queues and the Figure 3 stealing-eligibility scan."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster.job import Job, JobClass
from repro.cluster.worker import (
    ProbeEntry,
    TaskEntry,
    Worker,
    WorkerState,
    find_first_short_group,
)
from repro.core.errors import SimulationError
from repro.schedulers.frontend import ProbeFrontend


def short_entry():
    job = Job(1, 0.0, (10.0,), 10.0, cutoff=100.0)
    return ProbeEntry(job, ProbeFrontend(job))


def long_entry():
    job = Job(2, 0.0, (1000.0,), 1000.0, cutoff=100.0)
    return TaskEntry(job.tasks[0])


def worker_with(entries, current=None):
    w = Worker(0, in_short_partition=False)
    for e in entries:
        w.enqueue(e)
    if current is not None:
        w.current_entry = current
        w.state = WorkerState.BUSY
    return w


# -- basic queue mechanics ----------------------------------------------
def test_new_worker_is_idle_and_empty():
    w = Worker(0, False)
    assert w.state is WorkerState.IDLE
    assert w.queue == []
    assert w.current_entry is None


def test_enqueue_pop_fifo_order():
    a, b = short_entry(), short_entry()
    w = worker_with([a, b])
    assert w.pop_next() is a
    assert w.pop_next() is b


def test_pop_empty_queue_raises():
    with pytest.raises(SimulationError):
        Worker(0, False).pop_next()


def test_long_entries_counter_tracks_enqueue_and_pop():
    w = worker_with([long_entry(), short_entry(), long_entry()])
    assert w.long_entries == 2
    w.pop_next()
    assert w.long_entries == 1
    w.pop_next()
    assert w.long_entries == 1
    w.pop_next()
    assert w.long_entries == 0


def test_enqueue_front_preserves_order_and_counts():
    w = Worker(0, False)
    tail = short_entry()
    w.enqueue(tail)
    stolen = [short_entry(), long_entry()]
    w.enqueue_front(stolen)
    assert list(w.queue) == stolen + [tail]
    assert w.long_entries == 1


def test_remove_range_returns_slice_in_order():
    entries = [short_entry() for _ in range(5)]
    w = worker_with(entries)
    removed = w.remove_range(1, 3)
    assert removed == entries[1:3]
    assert list(w.queue) == [entries[0]] + entries[3:]


def test_remove_range_invalid_bounds_raise():
    w = worker_with([short_entry()])
    with pytest.raises(SimulationError):
        w.remove_range(0, 5)


def test_remove_range_empty_slice_is_noop():
    entries = [short_entry(), long_entry()]
    w = worker_with(entries)
    assert w.remove_range(1, 1) == []
    assert list(w.queue) == entries
    assert w.long_entries == 1


@pytest.mark.parametrize("start, stop", [(0, 2), (1, 4), (2, 5), (0, 5), (3, 3)])
def test_remove_range_matches_list_slicing(start, stop):
    entries = [
        long_entry(), short_entry(), short_entry(), long_entry(), short_entry()
    ]
    w = worker_with(entries)
    removed = w.remove_range(start, stop)
    assert removed == entries[start:stop]
    assert list(w.queue) == entries[:start] + entries[stop:]
    assert w.long_entries == sum(
        1 for e in entries[:start] + entries[stop:] if e.is_long
    )
    # bookkeeping stays consistent for subsequent steals
    assert w.steal_hint() is (w.eligible_steal_range() is not None)


def test_entry_class_flags():
    assert short_entry().is_short and not short_entry().is_long
    assert long_entry().is_long and not long_entry().is_short


# -- find_first_short_group (the pure Figure 3 rule) ---------------------
@pytest.mark.parametrize(
    "executing_long, flags, expected",
    [
        # b-cases: executing long, shorts at the head are eligible.
        (True, [False, False, True, False], (0, 2)),
        (True, [False], (0, 1)),
        # a-cases: executing short, shorts after the first queued long.
        (False, [False, True, False, False, True, False], (2, 4)),
        (False, [False, False], None),  # no long anywhere
        (True, [], None),  # empty queue
        (False, [True, False], (1, 2)),
        (False, [True], None),  # a long but nothing short behind it
        (True, [True, False, False], (1, 3)),  # head long, group behind it
        (False, [False, True], None),  # shorts only before the long
        (True, [True, True, False], (2, 3)),
        (False, [True, True, False, True, False], (2, 3)),  # first group only
    ],
)
def test_find_first_short_group(executing_long, flags, expected):
    assert find_first_short_group(executing_long, flags) == expected


# -- Worker.eligible_steal_range ties it together ------------------------
def test_eligible_range_executing_long_head_shorts():
    # Figure 3 case b1: executing long, short tasks at queue head.
    w = worker_with(
        [short_entry(), short_entry(), long_entry()], current=long_entry()
    )
    assert w.eligible_steal_range() == (0, 2)


def test_eligible_range_executing_short_group_after_long():
    # Figure 3 case a1: executing short, group sits behind the queued long.
    w = worker_with(
        [short_entry(), long_entry(), short_entry(), short_entry()],
        current=short_entry(),
    )
    assert w.eligible_steal_range() == (2, 4)


def test_eligible_range_empty_queue():
    w = Worker(0, False)
    assert w.eligible_steal_range() is None


def test_eligible_range_no_long_anywhere():
    w = worker_with([short_entry(), short_entry()], current=short_entry())
    assert w.eligible_steal_range() is None


def test_eligible_range_all_long_queue():
    w = worker_with([long_entry(), long_entry()], current=long_entry())
    assert w.eligible_steal_range() is None


def test_eligible_range_waiting_probe_counts_as_current():
    # A worker WAITING on a long probe blocks like an executing long task.
    w = Worker(0, False)
    w.enqueue(short_entry())
    w.current_entry = long_entry()
    w.state = WorkerState.WAITING
    assert w.eligible_steal_range() == (0, 1)


# -- steal_hint (O(1), exact) --------------------------------------------
def test_steal_hint_false_when_empty():
    assert Worker(0, False).steal_hint() is False


def test_steal_hint_true_when_executing_long_with_short_queued():
    w = worker_with([short_entry()], current=long_entry())
    assert w.steal_hint() is True


def test_steal_hint_false_when_all_queued_long():
    w = worker_with([long_entry()], current=long_entry())
    assert w.steal_hint() is False


def test_steal_hint_false_short_on_short():
    w = worker_with([short_entry()], current=short_entry())
    assert w.steal_hint() is False


def test_steal_hint_false_when_shorts_only_ahead_of_long():
    """Regression: ``[short, long]`` with a short (or idle) slot has no
    stealable group — the Figure 3 rule needs a short *behind* a long —
    but the old ``long_entries > 0`` hint reported one, keeping
    ``cluster.steal_hint_count`` stuck above zero so idle workers burned
    backoff-retry events forever instead of parking."""
    w = worker_with([short_entry(), long_entry()], current=short_entry())
    assert w.eligible_steal_range() is None
    assert w.steal_hint() is False

    idle = worker_with([short_entry(), long_entry()])
    assert idle.eligible_steal_range() is None
    assert idle.steal_hint() is False


# -- steals through the head-enqueue seq space ---------------------------
def test_remove_range_with_negative_seqs_from_enqueue_front():
    """Stolen entries re-queued at the head carry negative seqs; stealing
    them back out must still find the run in the per-class seq lists
    (``_drop_seqs`` looks up the run's first seq, it does not assume
    0-based)."""
    w = Worker(0, False)
    w.enqueue(long_entry())
    w.enqueue(short_entry())
    front = [short_entry(), short_entry()]
    w.enqueue_front(front)  # seqs -2, -1 ahead of the 0, 1 tail entries
    assert [e.seq for e in w.queue] == [-2, -1, 0, 1]
    removed = w.remove_range(0, 2)
    assert removed == front
    assert w.long_entries == 1
    assert w.steal_hint() is (w.eligible_steal_range() is not None)
    # the remaining tail entries are untouched and still steal-consistent
    assert [e.seq for e in w.queue] == [0, 1]


def test_remove_range_full_queue_resets_all_bookkeeping():
    entries = [long_entry(), short_entry(), long_entry(), short_entry()]
    w = worker_with(entries)
    removed = w.remove_range(0, len(entries))
    assert removed == entries
    assert w.queue == []
    assert w.long_entries == 0
    assert w.steal_hint() is False
    assert w.eligible_steal_range() is None
    # the worker is immediately reusable: seq allocation keeps going up
    nxt = short_entry()
    w.enqueue(nxt)
    assert nxt.seq == len(entries)


def test_eligible_range_run_at_tail_is_stealable():
    # The eligible group extends to the end of the queue (no long after
    # it), exercising the ``(start, i + 1)`` tail return of the scan.
    entries = [long_entry(), short_entry(), short_entry()]
    w = worker_with(entries, current=short_entry())
    assert w.eligible_steal_range() == (1, 3)
    removed = w.remove_range(1, 3)
    assert removed == entries[1:]
    assert w.steal_hint() is False


def test_drop_seqs_middle_run():
    # Stealing a middle group leaves the list sorted with the run gone.
    seqs = [-3, -1, 2, 5, 8]
    Worker._drop_seqs(seqs, [2, 5])
    assert seqs == [-3, -1, 8]


# -- randomized state: hint <=> eligible range, columns track the queue --
@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("enqueue"), st.booleans()),
            st.tuples(
                st.just("front"),
                st.lists(st.booleans(), min_size=1, max_size=3),
            ),
            st.tuples(st.just("pop"), st.none()),
            st.tuples(st.just("steal"), st.none()),
            st.tuples(
                st.just("slot"), st.sampled_from(["long", "short", "none"])
            ),
        ),
        max_size=25,
    )
)
def test_hint_matches_range_and_columns_under_random_ops(ops):
    """``steal_hint() is (eligible_steal_range() is not None)`` and the
    per-class seq columns mirror the queue through arbitrary mixes of
    tail enqueues, head (stolen-entry) enqueues, pops, eligible-range
    steals and slot changes."""
    w = Worker(0, False)
    for op, arg in ops:
        if op == "enqueue":
            w.enqueue(long_entry() if arg else short_entry())
        elif op == "front":
            w.enqueue_front(
                [long_entry() if f else short_entry() for f in arg]
            )
        elif op == "pop":
            if w.queue:
                w.pop_next()
        elif op == "steal":
            span = w.eligible_steal_range()
            if span is not None:
                removed = w.remove_range(*span)
                assert removed and all(e.is_short for e in removed)
        else:
            if arg == "none":
                w.current_entry = None
                w.state = WorkerState.IDLE
            else:
                w.current_entry = (
                    long_entry() if arg == "long" else short_entry()
                )
                w.state = WorkerState.BUSY
        # invariants after every step
        assert w.steal_hint() is (w.eligible_steal_range() is not None)
        assert w.long_entries == sum(1 for e in w.queue if e.is_long)
        seqs = [e.seq for e in w.queue]
        assert seqs == sorted(seqs)
        assert sorted(w._short_seqs) == [
            e.seq for e in w.queue if e.is_short
        ] == list(w._short_seqs)
        assert sorted(w._long_seqs) == [
            e.seq for e in w.queue if e.is_long
        ] == list(w._long_seqs)


def test_steal_hint_iff_eligible_range_exhaustive():
    """hint is True exactly when an eligible range exists (both ways)."""
    import itertools

    for current_long in (True, False, None):
        for n in range(5):
            for flags in itertools.product([True, False], repeat=n):
                w = Worker(0, False)
                for is_long in flags:
                    w.enqueue(long_entry() if is_long else short_entry())
                if current_long is not None:
                    w.current_entry = (
                        long_entry() if current_long else short_entry()
                    )
                    w.state = WorkerState.BUSY
                assert w.steal_hint() is (
                    w.eligible_steal_range() is not None
                ), (current_long, flags)


# -- memory: a worker costs what it holds --------------------------------
@pytest.mark.parametrize("policy", ["sparrow", "hawk"])
def test_engine_memory_per_worker_is_bounded(policy):
    """An idle worker must not pay for containers it has not filled: a
    20,000-worker engine traces at most 1 KiB per worker (empty deques
    alone cost three 760 B blocks per worker)."""
    import gc
    import tracemalloc

    from repro.experiments.config import RunSpec, build_engine
    from repro.workloads.registry import WorkloadSpec

    n_workers = 20_000
    workload = WorkloadSpec("google-scale10k")
    # Warm up, so lazy imports and registrations are not traced.
    build_engine(RunSpec.for_workload(workload, policy, 100))
    spec = RunSpec.for_workload(workload, policy, n_workers)
    gc.collect()
    tracemalloc.start()
    try:
        engine = build_engine(spec)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(engine.cluster.workers) == n_workers
    assert traced / n_workers <= 1024, f"{traced / n_workers:.0f} B/worker"
