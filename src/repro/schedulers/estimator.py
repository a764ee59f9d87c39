"""Task-runtime estimation models (Sections 3.3 and 4.8).

Hawk estimates a job's task runtime as the mean of its task durations,
informed by previous runs of recurring jobs.  The mis-estimation model of
Section 4.8 multiplies the correct estimate by a random value chosen
uniformly within a configurable range (e.g. 0.1-1.9).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import ConfigurationError
from repro.core.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.spec import JobSpec


class ExactEstimation:
    """Perfect estimates: the true mean task duration."""

    def __call__(self, spec: "JobSpec") -> float:
        return spec.mean_task_duration


class UniformMisestimation:
    """Multiply the correct estimate by Uniform(low, high).

    The paper's ranges are symmetric around 1 (0.1-1.9 ... 0.7-1.3), but
    any valid range is accepted.  A given ``(seed, run_seed, job_id)``
    triple always produces the same factor, so two schedulers compared
    on the same trace and seed see identical mis-estimations.

    The estimator implements the engine's ``seeded(run_seed)`` hook:
    at engine construction it is specialized to the run seed, so seed
    *replicas* of one spec draw independent mis-estimations — which is
    what lets Figure 14 average over estimator noise through the
    ordinary seed replicas of a ``multi_sweep`` stream instead of a
    bespoke loop.
    """

    def __init__(
        self,
        low: float,
        high: float,
        seed: int = 0,
        run_seed: int | None = None,
    ) -> None:
        if low <= 0 or high < low:
            raise ConfigurationError(
                f"mis-estimation range must satisfy 0 < low <= high, "
                f"got [{low}, {high}]"
            )
        self.low = low
        self.high = high
        self.seed = seed
        self.run_seed = run_seed

    def seeded(self, run_seed: int) -> "UniformMisestimation":
        """Engine hook: bind the mis-estimation stream to one run seed."""
        return UniformMisestimation(
            self.low, self.high, seed=self.seed, run_seed=run_seed
        )

    def __call__(self, spec: "JobSpec") -> float:
        stream = (
            f"misestimate-{spec.job_id}"
            if self.run_seed is None
            else f"misestimate-{self.run_seed}-{spec.job_id}"
        )
        rng = make_rng(self.seed, stream)
        factor = float(rng.uniform(self.low, self.high))
        return spec.mean_task_duration * factor
