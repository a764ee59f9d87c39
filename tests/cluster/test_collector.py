"""A batch run leaves nothing for the cycle collector.

A finished job empties its task list, so a run's job <-> task graph has
no cycle and reference counting frees it.  The run and its event loop
pause the collector through ``collector_paused`` and must hand its
switch back as they found it, on every exit.  A cache load does not
pause it (a column blob allocates too few objects for a pause to pay),
and must leave the switch as it found it, hit, miss or torn blob.
"""

import gc

import pytest

from repro.cluster import Cluster, ClusterEngine, EngineConfig
from repro.cluster.job import Job
from repro.cluster.task import Task
from repro.core import Simulation, SimulationError
from repro.experiments.config import RunSpec, execute, high_load_size
from repro.experiments.fig_faults import plan_for
from repro.experiments.parallel import DiskCache
from repro.schedulers import SparrowScheduler
from repro.schedulers.registry import registered_names
from repro.workloads.registry import quick_spec
from repro.workloads.spec import Trace
from tests.conftest import TEST_CUTOFF, short_job


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("policy", registered_names())
def test_batch_run_leaves_no_task_graph(policy, faulted):
    workload = quick_spec("google")
    trace = workload.trace(0)
    faults = plan_for(0.3, trace.horizon) if faulted else None
    spec = RunSpec.for_workload(
        workload, policy, high_load_size(trace), 0, faults=faults
    )
    gc.collect()
    gc.disable()
    try:
        execute(spec, trace)
        left = sum(1 for obj in gc.get_objects() if type(obj) in (Job, Task))
    finally:
        gc.enable()
    assert left == 0


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Set the collector's switch for one test; restore it afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def _trace():
    return Trace([short_job(i, float(i)) for i in range(4)], name="shorts")


def _engine(max_events=None):
    return ClusterEngine(
        Cluster(8),
        SparrowScheduler(),
        EngineConfig(cutoff=TEST_CUTOFF, max_events=max_events),
    )


def test_simulation_run_restores_switch(collector):
    sim = Simulation()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert gc.isenabled() is collector
    for delay in (1.0, 2.0):
        sim.schedule(delay, lambda: None)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=1)
    assert gc.isenabled() is collector


def test_engine_run_restores_switch(collector):
    _engine().run(_trace())
    assert gc.isenabled() is collector
    with pytest.raises(SimulationError, match="budget"):
        _engine(max_events=5).run(_trace())
    assert gc.isenabled() is collector


def test_cache_load_restores_switch(collector, tmp_path):
    cache = DiskCache(tmp_path)
    result = _engine().run(_trace())
    cache.store("hit", result)
    assert cache.load("hit") == result
    assert gc.isenabled() is collector
    assert cache.load("missing") is None
    assert gc.isenabled() is collector
    blob = cache.path("hit")
    blob.write_bytes(blob.read_bytes()[:-20])
    assert cache.load("hit") is None
    assert gc.isenabled() is collector
