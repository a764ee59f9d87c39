"""Run-cache keys: pinned values and one spec digest per spec.

The hex keys below were computed before ``RunSpec`` derived its digest
at construction; they must never move without a ``CACHE_VERSION`` bump,
or every user's cache silently misses.
"""

from __future__ import annotations

import pytest

from repro.cluster.faults import FaultPlan
from repro.core.params import FrozenParams
from repro.experiments.config import RunSpec, high_load_size
from repro.experiments.parallel import DiskCache, SweepExecutor, cache_key
from repro.workloads.registry import at_scale
from tests.experiments.test_parallel import small_trace

CACHE_KEYS = {
    "plain": "94eed334c59c2c7646ffbaed403366b392814332",
    "faulted": "980efcf60149f76e32aff7f93e6efcbee33930ce",
    "tagged": "d5ec5071e641548b6a49925573b65566672bfd5b",
}


def quick_hawk():
    workload = at_scale("google", "quick")
    trace = workload.trace(0)
    return RunSpec.for_workload(workload, "hawk", high_load_size(trace)), trace


@pytest.mark.parametrize("name", sorted(CACHE_KEYS))
def test_cache_keys_are_pinned(name):
    spec, trace = quick_hawk()
    spec = {
        "plain": spec,
        "faulted": spec.with_(faults=FaultPlan.of(crash_fraction=0.1)),
        "tagged": spec.with_(estimate_tag="misestimate-x"),
    }[name]
    assert cache_key(spec, trace) == CACHE_KEYS[name]


def test_warm_stream_derives_each_spec_digest_once(tmp_path, monkeypatch):
    """A digest reprs the spec's params once; a warm pass over a
    2-spec x 5-trace grid must not repeat that per point."""
    reprs = []
    plain_repr = FrozenParams.__repr__

    def counting_repr(self):
        reprs.append(self)
        return plain_repr(self)

    monkeypatch.setattr(FrozenParams, "__repr__", counting_repr)
    specs = [
        RunSpec(scheduler=name, n_workers=4, cutoff=100.0)
        for name in ("hawk", "sparrow")
    ]
    assert len(reprs) == 2
    grid = [
        (spec, small_trace(f"t{i}").subset(5 - i))
        for i in range(5)
        for spec in specs
    ]
    cache = DiskCache(tmp_path)
    SweepExecutor(max_workers=1, disk_cache=cache).run_many(grid)
    reprs.clear()
    warm = SweepExecutor(max_workers=1, disk_cache=cache)
    assert len(list(warm.run_stream(grid))) == len(grid)
    assert warm.disk_hits == len(grid) and warm.executions == 0
    assert reprs == []
