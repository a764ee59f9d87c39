"""The Section 2.3 motivation workload.

"1000 jobs need to be scheduled in a cluster of 15000 servers.  95% of the
jobs are considered short.  Each short job has 100 tasks, and each task
takes 100s to complete.  5% of the jobs are long.  Each has 1000 tasks,
and each task takes 20000s.  The job submission times are derived from a
Poisson distribution with a mean of 50s."

A ``scale`` parameter shrinks jobs and the recommended cluster size
together so the same utilization regime can be explored cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.errors import ConfigurationError
from repro.core.params import Param
from repro.core.rng import make_rng
from repro.workloads.arrivals import poisson_arrival_times
from repro.workloads.registry import register_workload
from repro.workloads.spec import JobSpec, Trace


@dataclass(frozen=True, slots=True)
class MotivationConfig:
    """Parameters of the Section 2.3 scenario (defaults = the paper's)."""

    n_jobs: int = 1000
    n_servers: int = 15000
    short_fraction: float = 0.95
    short_tasks: int = 100
    short_duration: float = 100.0
    long_tasks: int = 1000
    long_duration: float = 20000.0
    mean_interarrival: float = 50.0
    #: Cutoff separating the two classes for reporting (any value between
    #: the two durations works; the midpoint in log space is conventional).
    cutoff: float = 1414.0

    def scaled(self, scale: float) -> "MotivationConfig":
        """Shrink the scenario by ``scale`` (jobs and servers together)."""
        if not 0.0 < scale <= 1.0:
            raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
        return replace(
            self,
            n_jobs=max(20, int(round(self.n_jobs * scale))),
            n_servers=max(30, int(round(self.n_servers * scale))),
            mean_interarrival=self.mean_interarrival / scale,
        )


def motivation_trace(config: MotivationConfig | None = None, seed: int = 0) -> Trace:
    """Build the motivation workload."""
    cfg = config or MotivationConfig()
    rng = make_rng(seed, "motivation")
    arrivals = poisson_arrival_times(rng, cfg.n_jobs, cfg.mean_interarrival)
    n_long = max(1, int(round(cfg.n_jobs * (1.0 - cfg.short_fraction))))
    # Spread long jobs evenly through the submission order, as a trace
    # sorted by arrival would interleave them.
    long_positions = {
        int(round(i * cfg.n_jobs / n_long)) for i in range(n_long)
    }
    jobs: list[JobSpec] = []
    for job_id, submit in enumerate(arrivals):
        if job_id in long_positions:
            durations = (cfg.long_duration,) * cfg.long_tasks
        else:
            durations = (cfg.short_duration,) * cfg.short_tasks
        jobs.append(JobSpec(job_id, submit, durations))
    return Trace(jobs, name="motivation")


@register_workload(
    "motivation",
    params=(
        Param("scale", float, default=1.0, minimum=0.001, maximum=1.0,
              doc="shrink factor: jobs and recommended servers together"),
    ),
    cutoff=MotivationConfig().cutoff,
    short_partition_fraction=0.17,
    quick_params={"scale": 0.02},
)
def _motivation_workload(params, seed: int) -> Trace:
    """The Section 2.3 motivation scenario (95% short / 5% long jobs)."""
    return motivation_trace(MotivationConfig().scaled(params["scale"]), seed=seed)
