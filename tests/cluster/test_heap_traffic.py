"""Exact heap traffic of a quick run: the noise-free gate on the event loop.

The simulation module's ``heapq`` is swapped for a counting stand-in (as
the e2e tracer does), so every push and pop the event heap pays is
counted.  A plain entry due before everything pending waits in the
one-entry next slot instead of the heap (``repro.core.simulation``), so
a message round trip usually costs no heap operation at all.  The counts
are exact for a fixed seed; a change that loses the slot, or adds heap
traffic elsewhere, moves them while ``events_fired`` stays put.
"""

from __future__ import annotations

import heapq

import pytest

import repro.core.simulation as simulation
from repro.experiments.config import RunSpec, build_engine, high_load_size
from repro.workloads.registry import quick_spec

#: Heap pops per policy before the next slot existed (quick google, seed 0),
#: and the largest share of them a run may still pay.  Re-pinning the
#: counts below must not give back the slot's cut.
POPS_WITHOUT_SLOT = {"sparrow": 17_517, "hawk": 51_968}
MAX_POPS_SHARE = {"sparrow": 0.45, "hawk": 0.9}

#: (events_fired, heap pops) per policy on quick google at high load, seed 0.
HEAP_TRAFFIC = {"sparrow": (50_843, 7_636), "hawk": (77_000, 46_259)}


class CountingHeapq:
    """Stand-in for the simulation module's ``heapq`` that counts traffic."""

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0

    def heappush(self, heap, item) -> None:
        self.pushes += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


@pytest.mark.parametrize("policy", sorted(HEAP_TRAFFIC))
def test_heap_traffic_is_pinned(policy, monkeypatch):
    counting = CountingHeapq()
    monkeypatch.setattr(simulation, "heapq", counting)
    spec = quick_spec("google")
    trace = spec.trace(0)
    engine = build_engine(
        RunSpec.for_workload(spec, policy, high_load_size(trace), 0)
    )
    engine.run(trace)
    # The run drains the heap, so every push is popped.
    assert counting.pushes == counting.pops
    assert (engine.sim.events_fired, counting.pops) == HEAP_TRAFFIC[policy]
    assert counting.pops <= MAX_POPS_SHARE[policy] * POPS_WITHOUT_SLOT[policy]
