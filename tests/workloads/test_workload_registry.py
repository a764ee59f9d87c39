"""Tests for the workload registry: schemas, identity, cache stability."""

import math
import os
import subprocess
import sys

import pytest

from repro.core.errors import ConfigurationError
from repro.core.params import FrozenParams, Param
from repro.experiments.config import RunSpec, high_load_size
from repro.experiments.parallel import cache_key, get_executor, replica_pairs
from repro.experiments.sweeps import RATIO_METRICS, sweep
from repro.workloads import registry
from repro.workloads.registry import (
    WorkloadSpec,
    at_scale,
    quick_spec,
    register_workload,
)
from repro.workloads.spec import JobSpec, Trace
from tests.conftest import TEST_CUTOFF

# -- registration rules ------------------------------------------------------
def test_duplicate_name_registration_rejected():
    with pytest.raises(ConfigurationError, match="already registered"):
        @register_workload("google", cutoff=100.0)
        def _clash(params, seed):  # pragma: no cover - never built
            raise AssertionError


def test_builtin_name_rejected_before_first_lookup():
    """A plugin registering first cannot claim a built-in name."""
    code = (
        "from repro.core.errors import ConfigurationError\n"
        "from repro.workloads.registry import register_workload, WorkloadSpec\n"
        "try:\n"
        "    register_workload('google', cutoff=100.0)(lambda params, seed: None)\n"
        "except ConfigurationError as exc:\n"
        "    print('rejected:', exc)\n"
        "print(WorkloadSpec('google').name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: workload 'google' is already registered",
        "google",
    ]


def test_registration_requires_positive_cutoff():
    with pytest.raises(ConfigurationError, match="cutoff"):
        @register_workload("no-cutoff", cutoff=0.0)
        def _bad(params, seed):  # pragma: no cover - never built
            raise AssertionError
    assert "no-cutoff" not in registry.registered_names()


def test_registration_rejects_duplicate_params():
    with pytest.raises(ConfigurationError, match="duplicate"):
        @register_workload(
            "dup-params",
            params=(Param("x", int, 1), Param("x", int, 2)),
            cutoff=100.0,
        )
        def _bad(params, seed):  # pragma: no cover - never built
            raise AssertionError


def test_registration_rejects_invalid_quick_params():
    with pytest.raises(ConfigurationError, match="quick_params"):
        @register_workload(
            "bad-quick",
            params=(Param("n_jobs", int, 100, minimum=1),),
            cutoff=100.0,
            quick_params={"jobs": 10},  # not a declared name
        )
        def _bad(params, seed):  # pragma: no cover - never built
            raise AssertionError


def test_unknown_workload_lists_registered_names():
    with pytest.raises(ConfigurationError, match="registered workloads"):
        WorkloadSpec("nope")


# -- param schema validation -------------------------------------------------
def test_unknown_param_rejected():
    with pytest.raises(ConfigurationError, match="unknown param"):
        WorkloadSpec("google", {"warp_factor": 9})


def test_out_of_range_param_rejected():
    with pytest.raises(ConfigurationError, match=">= 10"):
        WorkloadSpec("google", {"n_jobs": 5})


def test_wrong_type_param_rejected():
    with pytest.raises(ConfigurationError, match="expects int"):
        WorkloadSpec("google", {"n_jobs": "many"})


def test_defaults_filled_and_canonicalized():
    spec = WorkloadSpec("google")
    assert dict(spec.params) == {"n_jobs": 1200, "mean_interarrival": 20.0}
    assert spec.param("n_jobs") == 1200
    explicit = WorkloadSpec("google", {"n_jobs": 1200})
    # omitted-vs-explicit default: the same workload
    assert spec == explicit and hash(spec) == hash(explicit)
    assert spec.digest() == explicit.digest()


def test_metadata_exposed_on_spec():
    spec = WorkloadSpec("google")
    assert spec.cutoff == 1129.0
    assert spec.short_partition_fraction == 0.17


def test_with_params_overrides_one_knob():
    spec = WorkloadSpec("google").with_params(n_jobs=260)
    assert spec.param("n_jobs") == 260
    assert spec.param("mean_interarrival") == 20.0
    assert spec == quick_spec("google")


def test_quick_spec_applies_registered_overrides():
    assert quick_spec("google") == WorkloadSpec("google", {"n_jobs": 260})
    assert quick_spec("google", {"n_jobs": 40}).param("n_jobs") == 40


# -- identity and materialization caching ------------------------------------
def test_params_reorder_keeps_digest_and_cache_key_stable():
    a = WorkloadSpec("google", {"n_jobs": 400, "mean_interarrival": 10.0})
    b = WorkloadSpec("google", {"mean_interarrival": 10.0, "n_jobs": 400})
    assert a.digest() == b.digest()
    assert a.trace(0) is b.trace(0)  # one materialization, shared object
    run = RunSpec(scheduler="sparrow", n_workers=8, cutoff=TEST_CUTOFF)
    assert cache_key(run, a.trace(0)) == cache_key(run, b.trace(0))
    # a different param value is a different workload and a different key
    c = a.with_params(n_jobs=401)
    assert c.digest() != a.digest()
    assert cache_key(run, c.trace(0)) != cache_key(run, a.trace(0))


def test_canonical_vs_default_params_materialize_identical_bytes():
    """Per-workload: explicit defaults produce byte-identical traces."""
    for name in registry.registered_names():
        bare = quick_spec(name)
        explicit = WorkloadSpec(name, dict(bare.params))
        assert bare.trace(0).content_digest() == explicit.trace(0).content_digest(), name


def test_one_point_through_every_registered_workload(uncached_executor):
    """Hawk vs Sparrow at high load on each workload's quick trace."""
    names = registry.registered_names()
    assert {"pareto-heavy", "bursty-diurnal"} <= set(names), names
    for name in names:
        workload = at_scale(name, "quick")
        n = high_load_size(workload.trace(0))
        hawk = RunSpec.for_workload(workload, "hawk", n)
        sparrow = RunSpec.for_workload(workload, "sparrow", n)
        point = sweep(workload, (n,), hawk, sparrow, uncached_executor)[0]
        ratios = point.cells(*RATIO_METRICS)
        assert all(math.isfinite(r) and r > 0 for r in ratios), (name, ratios)


def test_materialized_trace_shared_with_traces_module():
    """Driver-scale specs (``at_scale``) share the registry's traces."""
    assert at_scale("google", "quick").trace(3) is quick_spec("google").trace(3)
    assert at_scale("yahoo-2011", "full") == WorkloadSpec("yahoo-2011")
    with pytest.raises(ConfigurationError, match="unknown workload scale"):
        at_scale("google", "medium")


def test_spec_is_a_trace_factory():
    spec = quick_spec("google")
    assert spec(2) is spec.trace(2)
    draws = [spec(s) for s in (0, 1, 2)]
    digests = {t.content_digest() for t in draws}
    assert len(digests) == 3  # independent draws per seed


def test_builder_must_return_a_trace():
    @register_workload("not-a-trace", cutoff=100.0)
    def _bad(params, seed):
        return [JobSpec(0, 0.0, (1.0,))]

    try:
        with pytest.raises(ConfigurationError, match="expected Trace"):
            WorkloadSpec("not-a-trace").trace(0)
    finally:
        registry.unregister("not-a-trace")


# -- end-to-end custom workload ----------------------------------------------
def test_custom_workload_flows_through_a_figure_point():
    """Registering a workload is the whole integration: it sweeps."""

    @register_workload(
        "test-uniform",
        params=(
            Param("n_jobs", int, default=12, minimum=1),
            Param("tasks", int, default=3, minimum=1),
        ),
        cutoff=TEST_CUTOFF,
        short_partition_fraction=0.25,
        quick_params={"n_jobs": 6},
    )
    def uniform_trace(params, seed):
        """Uniform short jobs plus one long straggler (test-only)."""
        jobs = [
            JobSpec(i, float(i) + 0.01 * seed, (10.0,) * params["tasks"])
            for i in range(params["n_jobs"])
        ]
        jobs.append(JobSpec(params["n_jobs"], 0.0, (1000.0,) * 4))
        return Trace(jobs, name="test-uniform")

    try:
        workload = WorkloadSpec("test-uniform", {"tasks": 2})
        hawk = RunSpec.for_workload(workload, "hawk", 8)
        assert hawk.short_partition_fraction == 0.25
        sparrow = RunSpec.for_workload(workload, "sparrow", 8)
        (point,) = sweep(workload, (8,), hawk, sparrow, n_seeds=2)
        assert point.n_seeds == 2
        assert all(r.candidate.n_workers == 8 for r in point.replicas)
        # replica 1 drew its own trace from the replica seed
        assert (
            point.replicas[0].candidate.jobs != point.replicas[1].candidate.jobs
        )
        # replica_pairs accepts the spec in place of (trace, factory) too
        runs = get_executor().run_many(replica_pairs(sparrow, workload, 2))
        assert len(runs) == 2
        assert "test-uniform" in registry.registered_names()
    finally:
        registry.unregister("test-uniform")
    assert "test-uniform" not in registry.registered_names()
