"""Graceful degradation under injected failures (Hawk-specific payoff).

The fault plans of :mod:`repro.cluster.faults` make failure a swept
experimental axis: each level crashes a growing fraction of workers
mid-trace (they restart after a fixed downtime) and takes the
centralized scheduler offline for a window whose length grows with the
level.  Three policies run every level on the same trace:

* ``centralized`` routes *every* job through the central scheduler, so
  the outage stalls its whole admission pipeline — short-job latency
  collapses with the failure level;
* ``sparrow`` is fully distributed and only feels the crashes;
* ``hawk`` schedules short jobs with distributed probes (outage-immune)
  and degrades long jobs to Sparrow-style probing while the centralized
  scheduler is down, recovering when it returns.

The figure's claim — the reason Hawk's hybrid split exists — is that
Hawk's short-job p50 degrades strictly less than the centralized-only
baseline's as the failure level rises.
"""

from __future__ import annotations

from repro.cluster.faults import FaultPlan
from repro.cluster.job import JobClass
from repro.experiments.config import RunSpec, high_load_size
from repro.experiments.parallel import get_executor, replica_pairs
from repro.experiments.report import FigureResult
from repro.metrics.percentiles import percentile
from repro.metrics.stats import cell
from repro.workloads.registry import at_scale

#: Policies compared at every failure level.
POLICIES = ("hawk", "sparrow", "centralized")

#: Fraction of workers crashed per failure level (0 = fault-free).
DEFAULT_CRASH_FRACTIONS = (0.0, 0.1, 0.2, 0.3)

#: Offered load for the fault sweep.  Deliberately below saturation:
#: with up to 30% of workers down before their restart, the surviving
#: capacity must still exceed the offered load or queues grow without
#: bound and every policy "collapses" for capacity reasons, not
#: scheduling ones.
FAULT_LOAD_TARGET = 0.65

#: Virtual seconds a crashed worker stays down before restarting.
RESTART_DELAY = 300.0

#: Centralized-scheduler outage length per unit of crash fraction, as a
#: fraction of the trace's submission horizon: at crash fraction 0.3 the
#: outage covers 0.3 * this fraction of the trace.
OUTAGE_HORIZON_FRACTION = 1.0


def plan_for(crash_fraction: float, horizon: float) -> FaultPlan | None:
    """The fault plan for one failure level of the sweep.

    Crashes are spread over the middle of the trace and the centralized
    outage opens early, so both failure families overlap the bulk of
    the submissions.  Level 0 returns ``None``: the fault-free run is
    byte-identical to one that predates fault injection.
    """
    if crash_fraction == 0.0:
        return None
    return FaultPlan.of(
        crash_fraction=crash_fraction,
        crash_start=0.10 * horizon,
        crash_window=0.60 * horizon,
        restart_delay=RESTART_DELAY,
        central_outage_start=0.15 * horizon,
        central_outage_duration=(
            crash_fraction * OUTAGE_HORIZON_FRACTION * horizon
        ),
    )


def run(
    scale: str = "full",
    seed: int = 0,
    crash_fractions=DEFAULT_CRASH_FRACTIONS,
    n_seeds: int = 1,
) -> FigureResult:
    workload = at_scale("google", scale)
    first = workload.trace(seed)
    n = high_load_size(first, FAULT_LOAD_TARGET)
    pairs = [
        pair
        for fraction in crash_fractions
        for policy in POLICIES
        for pair in replica_pairs(
            RunSpec.for_workload(
                workload, policy, n, seed,
                faults=plan_for(fraction, first.horizon),
            ),
            workload,
            n_seeds,
        )
    ]
    results = iter(get_executor().run_many(pairs))

    result = FigureResult(
        figure_id="Figure R (faults)",
        title=(
            "Job runtimes under injected failures "
            "(worker crashes + centralized outage)"
        ),
        headers=(
            "crash frac",
            "policy",
            "short p50 (s)",
            "short p90 (s)",
            "long p50 (s)",
            "retried tasks",
        ),
    )
    # Per (policy, level) mean short p50 across replicas, for the
    # degradation note and the acceptance assertion downstream.
    short_p50: dict[tuple[str, float], float] = {}
    for fraction in crash_fractions:
        for policy in POLICIES:
            replicas = [next(results) for _ in range(n_seeds)]
            s50 = [percentile(r.runtimes(JobClass.SHORT), 50.0) for r in replicas]
            s90 = [percentile(r.runtimes(JobClass.SHORT), 90.0) for r in replicas]
            l50 = [percentile(r.runtimes(JobClass.LONG), 50.0) for r in replicas]
            retried = [float(r.job_columns.retried_tasks.sum()) for r in replicas]
            short_p50[(policy, fraction)] = sum(s50) / len(s50)
            result.add_row(
                fraction, policy, *(cell(v) for v in (s50, s90, l50, retried))
            )

    worst = max(crash_fractions)
    if worst > 0.0:
        degradations = {
            policy: short_p50[(policy, worst)] / short_p50[(policy, 0.0)]
            for policy in POLICIES
        }
        result.add_note(
            "short-job p50 degradation (worst level / fault-free): "
            + ", ".join(
                f"{policy} {degradations[policy]:.2f}x"
                for policy in POLICIES
            )
        )
    result.add_note(
        f"cluster sized for {FAULT_LOAD_TARGET:.2f} offered load; crashed "
        f"workers restart after {RESTART_DELAY:.0f}s virtual"
    )
    result.add_note(
        "each level crashes the listed worker fraction mid-trace and "
        "takes the centralized scheduler down for a window proportional "
        "to it; hawk degrades long jobs to distributed probes during "
        "the outage, so its short-job path never touches the outage"
    )
    result.add_replica_note(n_seeds, cells="cells", test=None)
    return result
