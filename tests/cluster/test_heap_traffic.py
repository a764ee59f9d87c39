"""Exact heap traffic of a quick run: the noise-free gate on the event loop.

The run ledger counts every push and pop the event heap pays on each
quick run (``CountingHeapq`` in :mod:`repro.experiments.ledger` stands
in for the simulation module's ``heapq``, as the e2e tracer's counter
does), records the pops and refuses a run that leaves its heap
undrained.  A plain entry due before everything pending waits in the
one-entry next slot instead of the heap (``repro.core.simulation``), so
a message round trip usually costs no heap operation at all.  The counts
are exact for a fixed seed; a change that loses the slot, or adds heap
traffic elsewhere, moves the ledger's ``heap_pops`` while ``events``
stays put, and must not give back the slot's cut.
"""

from __future__ import annotations

import pytest

from repro.experiments import ledger

#: Heap pops per policy before the next slot existed (quick google, seed 0),
#: and the largest share of them a run may still pay.
POPS_WITHOUT_SLOT = {"sparrow": 17_517, "hawk": 51_968}
MAX_POPS_SHARE = {"sparrow": 0.45, "hawk": 0.9}


@pytest.mark.parametrize("policy", sorted(POPS_WITHOUT_SLOT))
def test_heap_traffic_is_pinned(policy):
    _, entries = ledger.load()
    values = entries[("run", "google", "0", policy, "plain")]
    pops = int(values[ledger.COLUMNS["run"].index("heap_pops")])
    assert pops <= MAX_POPS_SHARE[policy] * POPS_WITHOUT_SLOT[policy]
