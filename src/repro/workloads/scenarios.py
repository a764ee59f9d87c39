"""Scenario workloads registered purely through the workload registry.

Neither generator below is referenced anywhere in the experiment layer:
they are constructed, validated, materialized and swept solely through
their registry registrations — ``WorkloadSpec("pareto-heavy")`` works in
every figure driver and sweep without touching the experiment layer.
They exist to prove the trace zoo is open (the workload-axis mirror of
``schedulers/scenarios.py``) and to stress the schedulers outside the
paper's four calibrated traces:

* ``pareto-heavy`` — job mean task durations drawn from a Pareto
  distribution: a genuinely heavy tail, unlike the log-normal Google
  body.  Most jobs are tiny, a few are enormous, and the long/short
  boundary cuts much deeper into the tail; stealing and the partition
  have to absorb rare-but-huge long jobs instead of a stable 10% long
  class.
* ``bursty-diurnal`` — a two-class job mix arriving through a
  sinusoidally-modulated Poisson process (Lewis-Shedler thinning): load
  swings between trough and peak within one trace, so a scheduler sees
  both an overloaded and a mostly-idle cluster across a single run —
  the diurnal pattern production clusters actually face.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.params import Param
from repro.core.rng import make_rng
from repro.workloads.arrivals import poisson_arrival_times
from repro.workloads.durations import spread_durations
from repro.workloads.registry import register_workload
from repro.workloads.spec import JobSpec, Trace

#: Reporting boundaries (registry metadata; see each generator).
PARETO_CUTOFF_S = 600.0
BURSTY_CUTOFF_S = 500.0


@register_workload(
    "pareto-heavy",
    params=(
        Param("n_jobs", int, default=900, minimum=10, maximum=1_000_000,
              doc="jobs in the generated trace"),
        Param("mean_interarrival", float, default=20.0, minimum=0.001,
              maximum=1e6,
              doc="mean Poisson job inter-arrival gap (s)"),
        Param("alpha", float, default=1.3, minimum=1.01, maximum=10.0,
              doc="Pareto tail index of job mean durations (lower = heavier)"),
        Param("duration_floor", float, default=40.0, minimum=0.001,
              maximum=1e6,
              doc="Pareto scale x_m: the smallest job mean duration (s)"),
        Param("duration_max", float, default=50000.0, minimum=1.0, maximum=1e7,
              doc="clamp on the heavy tail (keeps simulations bounded)"),
        Param("tasks_centroid", float, default=30.0, minimum=1.0, maximum=1e5,
              doc="exponential mean of per-job task counts"),
    ),
    cutoff=PARETO_CUTOFF_S,
    short_partition_fraction=0.1,
    quick_params={"n_jobs": 240},
)
def pareto_heavy_trace(params, seed: int) -> Trace:
    """Heavy-tail workload: Pareto job mean durations, exponential sizes."""
    rng = make_rng(seed, "pareto-heavy")
    arrival_rng = make_rng(seed, "pareto-heavy-arrivals")
    n_jobs = params["n_jobs"]
    alpha = params["alpha"]
    floor = params["duration_floor"]
    # numpy's pareto draws the Lomax tail; 1 + draw is Pareto-I at x_m=1,
    # so `floor * (1 + draw)` has P(mean >= c) = (floor / c) ** alpha.
    means = floor * (1.0 + rng.pareto(alpha, size=n_jobs))
    means = np.clip(means, None, params["duration_max"])
    counts = np.clip(
        np.round(rng.exponential(params["tasks_centroid"], size=n_jobs)),
        1,
        None,
    ).astype(int)
    arrivals = poisson_arrival_times(
        arrival_rng, n_jobs, params["mean_interarrival"]
    )
    job_shapes = list(zip(counts.tolist(), means.tolist()))
    durations = spread_durations(rng, job_shapes, 0.5)
    jobs = [
        JobSpec(job_id, submit, job_durations)
        for job_id, (submit, job_durations) in enumerate(zip(arrivals, durations))
    ]
    return Trace(jobs, name="pareto-heavy")


def _thinned_sinusoidal_arrivals(
    rng: np.random.Generator,
    n_jobs: int,
    mean_interarrival: float,
    amplitude: float,
    period: float,
) -> list[float]:
    """Lewis-Shedler thinning of rate(t) = base * (1 + A sin(2πt/period)).

    The accepted points form a non-homogeneous Poisson process whose
    intensity swings between ``base * (1 - A)`` and ``base * (1 + A)``
    — the trough/peak of one diurnal cycle every ``period`` seconds.
    """
    base_rate = 1.0 / mean_interarrival
    max_rate = base_rate * (1.0 + amplitude)
    times: list[float] = []
    t = 0.0
    while len(times) < n_jobs:
        t += float(rng.exponential(1.0 / max_rate))
        rate = base_rate * (1.0 + amplitude * math.sin(2.0 * math.pi * t / period))
        if float(rng.uniform()) * max_rate < rate:
            times.append(t)
    return times


@register_workload(
    "bursty-diurnal",
    params=(
        Param("n_jobs", int, default=900, minimum=10, maximum=1_000_000,
              doc="jobs in the generated trace"),
        Param("mean_interarrival", float, default=20.0, minimum=0.001,
              maximum=1e6,
              doc="mean gap of the *average* arrival rate (s)"),
        Param("amplitude", float, default=0.8, minimum=0.0, maximum=0.99,
              doc="peak-to-mean rate swing: rate in base*(1±A)"),
        Param("period", float, default=4000.0, minimum=1.0, maximum=1e7,
              doc="length of one load cycle (s)"),
        Param("long_fraction", float, default=0.1, minimum=0.0, maximum=0.9,
              doc="fraction of jobs in the long class"),
    ),
    cutoff=BURSTY_CUTOFF_S,
    short_partition_fraction=0.12,
    quick_params={"n_jobs": 240},
)
def bursty_diurnal_trace(params, seed: int) -> Trace:
    """Two-class mix arriving through a sinusoidally-modulated Poisson."""
    rng = make_rng(seed, "bursty-diurnal")
    arrival_rng = make_rng(seed, "bursty-diurnal-arrivals")
    n_jobs = params["n_jobs"]
    arrivals = _thinned_sinusoidal_arrivals(
        arrival_rng,
        n_jobs,
        params["mean_interarrival"],
        params["amplitude"],
        params["period"],
    )
    long_draws = rng.uniform(size=n_jobs) < params["long_fraction"]
    jobs: list[JobSpec] = []
    for job_id, submit in enumerate(arrivals):
        if long_draws[job_id]:
            tasks = min(max(round(rng.exponential(120.0)), 1), 2000)
            mean = math.exp(math.log(1500.0) + 0.5 * rng.standard_normal())
            mean = min(max(mean, BURSTY_CUTOFF_S), 30000.0)
        else:
            tasks = min(max(round(rng.exponential(18.0)), 1), 200)
            mean = math.exp(math.log(80.0) + 0.8 * rng.standard_normal())
            mean = min(max(mean, 1.0), 0.98 * BURSTY_CUTOFF_S)
        # Each job's task draws follow its own size and mean draws.
        (durations,) = spread_durations(rng, [(tasks, mean)], 0.5)
        jobs.append(JobSpec(job_id, submit, durations))
    return Trace(jobs, name="bursty-diurnal")
