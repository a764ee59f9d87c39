"""Job arrival processes.

The paper derives job submission times from a Poisson process
(Sections 2.3 and 4.1): exponentially distributed inter-arrival gaps.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigurationError


def poisson_arrival_times(
    rng: np.random.Generator, n: int, mean_interarrival: float
) -> list[float]:
    """Submission times for ``n`` jobs with the given mean gap (seconds)."""
    if n <= 0:
        raise ConfigurationError(f"need at least one arrival, got {n}")
    if mean_interarrival <= 0:
        raise ConfigurationError(
            f"mean inter-arrival must be positive, got {mean_interarrival}"
        )
    gaps = rng.exponential(mean_interarrival, size=n)
    return np.cumsum(gaps).tolist()
