"""Tests for the policy registry: schemas, flags, cache-key stability."""

import math

import pytest

from repro.cluster.engine import EngineConfig
from repro.cluster.faults import FaultPlan
from repro.core.errors import ConfigurationError
from repro.experiments.config import (
    RunSpec,
    build_engine,
    execute,
    high_load_size,
)
from repro.experiments.fig_faults import plan_for
from repro.experiments.parallel import cache_key
from repro.experiments.sweeps import RATIO_METRICS, sweep
from repro.schedulers import registry
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.registry import FrozenParams, Param, register_policy
from repro.schedulers.scenarios import BatchSamplingScheduler
from repro.workloads.registry import at_scale, quick_spec
from repro.workloads.spec import Trace
from tests.conftest import TEST_CUTOFF, long_job, short_job

@pytest.fixture
def tiny():
    jobs = [long_job(0, 0.0, 4)] + [short_job(i, float(i)) for i in range(1, 6)]
    return Trace(jobs, name="registry-tiny")


# -- registration rules ------------------------------------------------------
def test_duplicate_name_registration_rejected():
    with pytest.raises(ConfigurationError, match="already registered"):
        @register_policy("hawk")
        def _clash(params):  # pragma: no cover - never built
            raise AssertionError


def test_stealing_policy_must_declare_steal_cap():
    with pytest.raises(ConfigurationError, match="steal_cap"):
        @register_policy("steals-without-cap", uses_stealing=True)
        def _bad(params):  # pragma: no cover - never built
            raise AssertionError
    assert "steals-without-cap" not in registry.registered_names()


def test_class_registration_requires_from_params():
    with pytest.raises(ConfigurationError, match="from_params"):
        @register_policy("classy")
        class NoBuilder(SchedulerPolicy):  # pragma: no cover - never built
            def on_job_submit(self, job):
                raise AssertionError
    assert "classy" not in registry.registered_names()


def test_unknown_policy_lists_registered_names():
    with pytest.raises(ConfigurationError, match="registered policies"):
        RunSpec(scheduler="nope", n_workers=4, cutoff=TEST_CUTOFF)


# -- param schema validation -------------------------------------------------
def test_unknown_param_rejected():
    with pytest.raises(ConfigurationError, match="unknown param"):
        RunSpec(
            scheduler="hawk",
            n_workers=4,
            cutoff=TEST_CUTOFF,
            params={"warp_factor": 9},
        )


def test_out_of_range_param_rejected():
    with pytest.raises(ConfigurationError, match=">= 1"):
        RunSpec(
            scheduler="hawk",
            n_workers=4,
            cutoff=TEST_CUTOFF,
            params={"steal_cap": 0},
        )


def test_wrong_type_param_rejected():
    with pytest.raises(ConfigurationError, match="expects int"):
        RunSpec(
            scheduler="sparrow",
            n_workers=4,
            cutoff=TEST_CUTOFF,
            params={"probe_ratio": "two"},
        )
    # bool is not an int here, despite being a subclass
    with pytest.raises(ConfigurationError, match="expects int"):
        registry.validate_params("sparrow", {"probe_ratio": True})


def test_defaults_filled_and_canonicalized():
    spec = RunSpec(scheduler="hawk", n_workers=4, cutoff=TEST_CUTOFF)
    assert dict(spec.params) == {"probe_ratio": 2, "steal_cap": 10}
    assert spec.params["steal_cap"] == 10
    explicit = RunSpec(
        scheduler="hawk",
        n_workers=4,
        cutoff=TEST_CUTOFF,
        params={"steal_cap": 10},
    )
    # omitted-vs-explicit default: the same spec
    assert spec == explicit and hash(spec) == hash(explicit)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_rejected_everywhere(bad):
    """NaN compares false against every bound, so each numeric gate must
    reject it (and the infinities) explicitly."""
    with pytest.raises(ConfigurationError, match="finite"):
        Param("knob", float, default=1.0).validate(bad)
    with pytest.raises(ConfigurationError):
        RunSpec(
            scheduler="hawk", n_workers=4, cutoff=TEST_CUTOFF,
            params={"probe_ratio": bad},
        )
    with pytest.raises(ConfigurationError, match="finite"):
        quick_spec("pareto-heavy", {"mean_interarrival": bad})
    with pytest.raises(ConfigurationError, match="finite"):
        FaultPlan.of(crash_fraction=0.05, crash_window=bad)
    with pytest.raises(ConfigurationError, match="finite"):
        EngineConfig(cutoff=bad)


def test_param_schema_rejects_bad_default():
    with pytest.raises(ConfigurationError):
        Param("x", int, default=0, minimum=1)


# -- capability-flag wiring --------------------------------------------------
@pytest.mark.parametrize(
    "name, has_stealing, has_partition",
    [
        ("hawk", True, True),
        ("sparrow", False, False),
        ("centralized", False, False),
        ("split", False, True),
        ("hawk-no-centralized", True, True),
        ("hawk-no-partition", True, False),
        ("hawk-no-stealing", False, True),
        ("sparrow-batch", False, False),
        ("omniscient", False, False),
    ],
)
def test_capability_flags_drive_engine_wiring(name, has_stealing, has_partition):
    entry = registry.policy_entry(name)
    assert entry.uses_stealing == has_stealing
    assert entry.uses_partition == has_partition
    engine = build_engine(
        RunSpec(scheduler=name, n_workers=10, cutoff=TEST_CUTOFF)
    )
    assert (engine.stealing is not None) == has_stealing
    assert (engine.cluster.n_short > 0) == has_partition


def test_steal_cap_param_configures_the_mechanism():
    engine = build_engine(
        RunSpec(
            scheduler="hawk",
            n_workers=10,
            cutoff=TEST_CUTOFF,
            params={"steal_cap": 3},
        )
    )
    assert engine.stealing is not None and engine.stealing.cap == 3


def test_ablation_family_comes_from_registry():
    assert registry.ablations_of("hawk") == (
        "hawk-no-centralized",
        "hawk-no-partition",
        "hawk-no-stealing",
    )
    # family members accept each other's params (shared schema)
    base = RunSpec(
        scheduler="hawk",
        n_workers=8,
        cutoff=TEST_CUTOFF,
        params={"steal_cap": 5},
    )
    for variant in registry.ablations_of("hawk"):
        assert base.with_(scheduler=variant).params == base.params


# -- cache-key stability -----------------------------------------------------
def test_cache_key_stable_across_params_dict_reordering(tiny):
    a = RunSpec(
        scheduler="hawk",
        n_workers=6,
        cutoff=TEST_CUTOFF,
        params={"probe_ratio": 3, "steal_cap": 7},
    )
    b = RunSpec(
        scheduler="hawk",
        n_workers=6,
        cutoff=TEST_CUTOFF,
        params={"steal_cap": 7, "probe_ratio": 3},
    )
    assert a.digest == b.digest
    assert cache_key(a, tiny) == cache_key(b, tiny)
    # and distinct values still mean distinct keys
    c = a.with_(params={"probe_ratio": 3, "steal_cap": 8})
    assert cache_key(a, tiny) != cache_key(c, tiny)


def test_frozen_params_mapping_semantics():
    params = FrozenParams({"b": 2, "a": 1})
    assert params == {"a": 1, "b": 2}
    assert list(params) == ["a", "b"]  # canonical order
    assert repr(params) == "FrozenParams(a=1, b=2)"
    assert hash(params) == hash(FrozenParams([("a", 1), ("b", 2)]))
    with pytest.raises(KeyError):
        params["zzz"]


# -- estimate/estimate_tag footgun -------------------------------------------
def test_custom_estimate_requires_non_exact_tag():
    with pytest.raises(ConfigurationError, match="estimate_tag"):
        RunSpec(
            scheduler="sparrow",
            n_workers=4,
            cutoff=TEST_CUTOFF,
            estimate=lambda s: 1.0,
        )
    # tagged estimators are fine, and the default path is untouched
    RunSpec(
        scheduler="sparrow",
        n_workers=4,
        cutoff=TEST_CUTOFF,
        estimate=lambda s: 1.0,
        estimate_tag="custom",
    )
    RunSpec(scheduler="sparrow", n_workers=4, cutoff=TEST_CUTOFF)


# -- registry-only scenario policies -----------------------------------------
def test_scenario_policies_run_without_config_edits(tiny):
    for name in ("sparrow-batch", "omniscient"):
        res = execute(
            RunSpec(scheduler=name, n_workers=6, cutoff=TEST_CUTOFF), tiny
        )
        assert len(res.jobs) == len(tiny)
        assert res.scheduler_name == name


def test_batch_sampling_probe_budget(tiny):
    spec = RunSpec(
        scheduler="sparrow-batch",
        n_workers=6,
        cutoff=TEST_CUTOFF,
        params={"batch_size": 4},
    )
    engine = build_engine(spec)
    assert isinstance(engine.scheduler, BatchSamplingScheduler)
    engine.run(tiny)
    # 4-task jobs at probe_ratio 2 would send 8 probes; the budget caps
    # each at max(num_tasks, min(8, 4)) = num_tasks
    expected = sum(job.num_tasks for job in tiny)
    assert engine.scheduler.probes_sent == expected


def test_omniscient_is_a_strong_baseline(tiny):
    omniscient = execute(
        RunSpec(scheduler="omniscient", n_workers=6, cutoff=TEST_CUTOFF), tiny
    )
    sparrow = execute(
        RunSpec(scheduler="sparrow", n_workers=6, cutoff=TEST_CUTOFF), tiny
    )
    # perfect knowledge should not lose on total completion time
    assert omniscient.end_time <= sparrow.end_time * 1.05


# -- end-to-end custom registration ------------------------------------------
def test_custom_policy_registers_and_sweeps(tiny):
    @register_policy(
        "test-fifo",
        params=(Param("fanout", int, default=1, minimum=1),),
    )
    class FifoPolicy(SchedulerPolicy):
        """Round-robin task placement (test-only)."""

        name = "test-fifo"

        def __init__(self, fanout: int) -> None:
            super().__init__()
            self.fanout = fanout
            self._next = 0

        @classmethod
        def from_params(cls, params):
            return cls(fanout=params["fanout"])

        def on_job_submit(self, job):
            for task in job.tasks:
                self.engine.place_tasks(
                    [(self._next % self.engine.cluster.n_workers, task)]
                )
                self._next += self.fanout

    try:
        spec = RunSpec(
            scheduler="test-fifo",
            n_workers=6,
            cutoff=TEST_CUTOFF,
            params={"fanout": 2},
        )
        res = execute(spec, tiny)
        assert len(res.jobs) == len(tiny)
        assert "test-fifo" in registry.registered_names()
    finally:
        registry.unregister("test-fifo")
    assert "test-fifo" not in registry.registered_names()


# -- one figure point per policy --------------------------------------------
@pytest.mark.parametrize("faulted", [False, True], ids=["no-faults", "faults"])
def test_every_policy_against_sparrow(uncached_executor, faulted):
    """Every registered policy vs Sparrow on the quick google point.

    The faulted pass applies the fig_faults plan at 30% crashes (with
    its centralized outage) to candidate and baseline alike.
    """
    names = registry.registered_names()
    assert {"sparrow-batch", "omniscient"} <= set(names), names
    workload = at_scale("google", "quick")
    trace = workload.trace(0)
    n = high_load_size(trace)
    faults = plan_for(0.3, trace.horizon) if faulted else None
    baseline = RunSpec.for_workload(workload, "sparrow", n, faults=faults)
    short_p50 = {}
    for name in names:
        spec = RunSpec.for_workload(workload, name, n, faults=faults)
        point = sweep(trace, (n,), spec, baseline, uncached_executor)[0]
        ratios = point.cells(*RATIO_METRICS)
        assert all(math.isfinite(r) and r > 0 for r in ratios), (name, ratios)
        short_p50[name] = ratios[0]
    if not faulted:
        # the omniscient oracle must not lose to Sparrow on short p50
        assert short_p50["omniscient"] <= 1.0, short_p50
