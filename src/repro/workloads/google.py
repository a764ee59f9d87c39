"""Synthetic Google-2011-like trace generator.

The paper uses the public Google trace (506,460 jobs after cleaning).  The
trace itself is not redistributable inside this repository, so we generate
a synthetic workload calibrated to every statistic the paper publishes
about it (Section 2.1):

* 10% of jobs are long (top decile by average task duration),
* long jobs account for ~83.65% of task-seconds,
* long jobs contribute ~28% of all tasks,
* long jobs' average task duration is ~7.34x that of short jobs,
* the long/short cutoff is 1129 s (the default of Figure 12),
* task durations vary within a job.

Mechanism: job-level (num_tasks, mean_duration) pairs are drawn from
log-normal distributions — with positive correlation between size and
duration for long jobs, without which the published task-seconds share is
unreachable — and per-task durations are Gaussian around the job mean and
rescaled so the job's realized mean is exactly the drawn one.  A final
calibration pass scales long-job durations by a single factor so the
sample's task-seconds share matches the target exactly (up to the
cutoff-floor clamp).

The calibration is fixed: the targets (``TARGET_TASK_SECONDS_SHARE``,
``TARGET_DURATION_RATIO``), the per-class medians, sigmas, latent
coefficients and clamps, and the cutoff ``GOOGLE_CUTOFF_S`` are module
constants.  :class:`GoogleTraceConfig` keeps only what callers vary:
the job count, the arrival gap, the long fraction and the within-job
spread.

The draws are vectors: one ``standard_normal`` vector per job class (two
normals per short job, three per long job) and one ``normal`` vector over
every task of the multi-task jobs, in job order
(:func:`~repro.workloads.durations.spread_durations`).  A Generator fills
a vector one element at a time, so the stream, and every trace, is that
of drawing one scalar per loop step; the log-normal ``exp`` and the
clamps stay scalar Python so no last-ulp libm difference creeps in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import ConfigurationError
from repro.core.params import Param
from repro.core.rng import make_rng
from repro.workloads.arrivals import poisson_arrival_times
from repro.workloads.durations import spread_durations
from repro.workloads.registry import register_workload
from repro.workloads.spec import JobSpec, Trace

#: Default long/short cutoff for the Google workload (Figure 12's default).
GOOGLE_CUTOFF_S = 1129.0

#: Short partition sizing for the Google workload (Section 4.1).
GOOGLE_SHORT_PARTITION_FRACTION = 0.17


# Calibration of the generator to the published statistics (Section 2.1).
#: Long jobs' share of all task-seconds.
TARGET_TASK_SECONDS_SHARE = 0.8365
#: Long jobs' mean task duration over short jobs'.
TARGET_DURATION_RATIO = 7.34
# Short-job distributions (log-normal medians and sigmas).
SHORT_TASKS_MEDIAN = 12.0
SHORT_TASKS_SIGMA = 1.0
SHORT_TASKS_MAX = 180
SHORT_DURATION_MEDIAN = 250.0
SHORT_DURATION_SIGMA = 1.0
# Long-job distributions: a shared latent size factor correlates task
# count and duration.
LONG_TASKS_MEDIAN = 42.0
LONG_TASKS_LATENT_COEFF = 1.0
LONG_TASKS_NOISE_SIGMA = 0.4
LONG_TASKS_MAX = 1000
LONG_DURATION_MEDIAN = 1500.0
LONG_DURATION_LATENT_COEFF = 0.35
LONG_DURATION_NOISE_SIGMA = 0.3
LONG_DURATION_MAX = 25000.0


@dataclass(frozen=True, slots=True)
class GoogleTraceConfig:
    """Knobs of the synthetic Google-like generator."""

    n_jobs: int = 1200
    mean_interarrival: float = 20.0
    long_fraction: float = 0.10
    # Within-job task-duration variation (coefficient of variation).
    within_job_cv: float = 0.5

    def __post_init__(self) -> None:
        if self.n_jobs < 10:
            raise ConfigurationError("need at least 10 jobs for a Google-like trace")
        if not 0.0 < self.long_fraction < 1.0:
            raise ConfigurationError("long_fraction must be in (0, 1)")
        if not 0 < self.n_long < self.n_jobs:
            raise ConfigurationError(
                f"long_fraction {self.long_fraction} of {self.n_jobs} jobs "
                f"gives {self.n_long} long jobs; both classes need at least one"
            )
        if not self.within_job_cv >= 0.0:
            raise ConfigurationError(
                f"within_job_cv must be >= 0, got {self.within_job_cv}"
            )

    @property
    def n_long(self) -> int:
        """Jobs in the long class (the rest are short)."""
        return int(round(self.n_jobs * self.long_fraction))


def google_like_trace(
    config: GoogleTraceConfig | None = None, seed: int = 0
) -> Trace:
    """Generate a synthetic trace with the paper's Google-trace statistics."""
    cfg = config or GoogleTraceConfig()
    rng = make_rng(seed, "google-trace")
    n_long = cfg.n_long
    n_short = cfg.n_jobs - n_long

    # -- draw job-level parameters ------------------------------------
    # One vector per class, in the scalar loop's draw order: (size,
    # duration) per short job, (latent, size, duration) per long job.
    z = rng.standard_normal(2 * n_short).tolist()
    log_tasks = math.log(SHORT_TASKS_MEDIAN)
    log_duration = math.log(SHORT_DURATION_MEDIAN)
    short_params: list[tuple[int, float]] = []
    for z_tasks, z_dur in zip(z[0::2], z[1::2]):
        tasks = round(math.exp(log_tasks + SHORT_TASKS_SIGMA * z_tasks))
        duration = math.exp(log_duration + SHORT_DURATION_SIGMA * z_dur)
        short_params.append(
            (
                min(max(tasks, 1), SHORT_TASKS_MAX),
                min(max(duration, 1.0), 0.98 * GOOGLE_CUTOFF_S),
            )
        )

    z = rng.standard_normal(3 * n_long).tolist()
    log_tasks = math.log(LONG_TASKS_MEDIAN)
    log_duration = math.log(LONG_DURATION_MEDIAN)
    long_params: list[tuple[int, float]] = []
    for latent, z_tasks, z_dur in zip(z[0::3], z[1::3], z[2::3]):
        tasks = round(
            math.exp(
                log_tasks
                + LONG_TASKS_LATENT_COEFF * latent
                + LONG_TASKS_NOISE_SIGMA * z_tasks
            )
        )
        duration = math.exp(
            log_duration
            + LONG_DURATION_LATENT_COEFF * latent
            + LONG_DURATION_NOISE_SIGMA * z_dur
        )
        long_params.append(
            (
                min(max(tasks, 1), LONG_TASKS_MAX),
                min(max(duration, GOOGLE_CUTOFF_S), LONG_DURATION_MAX),
            )
        )

    # -- two-knob calibration to the published statistics ---------------
    # Knob 1: scale long durations so the job-level mean-duration ratio
    # hits the target (7.34x for the Google trace).
    mean_short_dur = sum(d for _, d in short_params) / len(short_params)
    mean_long_dur = sum(d for _, d in long_params) / len(long_params)
    dur_scale = TARGET_DURATION_RATIO * mean_short_dur / mean_long_dur
    long_params = [
        (t, max(GOOGLE_CUTOFF_S, min(d * dur_scale, LONG_DURATION_MAX)))
        for t, d in long_params
    ]
    # Knob 2: scale long task counts so long jobs contribute the target
    # task-seconds share (83.65%); rounding leaves only a small residual.
    short_ts = sum(t * d for t, d in short_params)
    long_ts = sum(t * d for t, d in long_params)
    target = TARGET_TASK_SECONDS_SHARE
    task_scale = (target * short_ts) / ((1.0 - target) * long_ts)
    long_params = [
        (max(1, min(int(round(t * task_scale)), LONG_TASKS_MAX)), d)
        for t, d in long_params
    ]
    # Residual repair: one final duration scale fixes rounding drift.
    long_ts = sum(t * d for t, d in long_params)
    repair = (target * short_ts) / ((1.0 - target) * long_ts)
    long_params = [
        (t, max(GOOGLE_CUTOFF_S, min(d * repair, LONG_DURATION_MAX)))
        for t, d in long_params
    ]

    # -- materialize per-task durations and arrival times --------------
    arrival_rng = make_rng(seed, "google-arrivals")
    arrivals = poisson_arrival_times(arrival_rng, cfg.n_jobs, cfg.mean_interarrival)
    order = list(range(cfg.n_jobs))
    rng.shuffle(order)  # interleave long and short jobs over time

    params = short_params + long_params
    durations = spread_durations(rng, [params[i] for i in order], cfg.within_job_cv)
    jobs = [
        JobSpec(job_id, submit, job_durations)
        for job_id, (submit, job_durations) in enumerate(zip(arrivals, durations))
    ]
    return Trace(jobs, name="google-like")


# -- registry entries ----------------------------------------------------
_GOOGLE_PARAMS = (
    Param("n_jobs", int, default=1200, minimum=10, maximum=1_000_000,
          doc="jobs in the generated trace"),
    Param("mean_interarrival", float, default=20.0, minimum=0.001,
          maximum=1e6,
          doc="mean Poisson job inter-arrival gap (s)"),
)


@register_workload(
    "google-scale100k",
    params=(
        Param("n_jobs", int, default=3000, minimum=10, maximum=1_000_000,
              doc="jobs in the densified trace"),
        Param("mean_interarrival", float, default=0.32, minimum=0.001,
              maximum=1e6,
              doc="10x the 10k point's arrival rate, same 3,000 jobs: mostly idle"),
    ),
    cutoff=GOOGLE_CUTOFF_S,
    short_partition_fraction=GOOGLE_SHORT_PARTITION_FRACTION,
    quick_params={"n_jobs": 300, "mean_interarrival": 1.6},
    doc="Densified Google-like trace for the 100k-worker scale point.",
)
@register_workload(
    "google-scale10k",
    params=(
        Param("n_jobs", int, default=3000, minimum=10, maximum=1_000_000,
              doc="jobs in the densified trace"),
        Param("mean_interarrival", float, default=3.2, minimum=0.001,
              maximum=1e6,
              doc="densified arrival gap: ~10k nodes at high load"),
    ),
    cutoff=GOOGLE_CUTOFF_S,
    short_partition_fraction=GOOGLE_SHORT_PARTITION_FRACTION,
    quick_params={"n_jobs": 300, "mean_interarrival": 16.0},
    doc="Densified Google-like trace for the 10k-worker scale point.",
)
@register_workload(
    "google",
    params=_GOOGLE_PARAMS,
    cutoff=GOOGLE_CUTOFF_S,
    short_partition_fraction=GOOGLE_SHORT_PARTITION_FRACTION,
    quick_params={"n_jobs": 260},
    doc="Synthetic Google-2011-like trace calibrated to the paper's statistics.",
)
def _google_workload(params, seed: int) -> Trace:
    """The Google-like trace at each registered arrival density.

    The scale points' gaps are 3.2 s and 0.32 s.  Both give an offered
    load (work / horizon / workers) of about 1.18 at 10k and 100k nodes,
    but only the 10k point is busy.  Both carry the same 3,000 jobs and
    78,494 tasks, fewer tasks than the 100k point has workers, and
    Sparrow's median utilization there is about 0.007.  Decorators
    apply bottom-up, so ``google`` registers first.
    """
    config = GoogleTraceConfig(
        n_jobs=params["n_jobs"], mean_interarrival=params["mean_interarrival"]
    )
    return google_like_trace(config, seed=seed)
