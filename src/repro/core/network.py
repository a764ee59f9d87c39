"""Network-delay model.

Section 4.1 of the paper: "Network delay is assumed to be 0.5ms.  The
scheduling decisions and the task stealing do not incur additional costs."
The model is therefore a constant one-way message latency.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError

#: One-way network latency used throughout the paper's simulations (0.5 ms).
DEFAULT_NETWORK_DELAY_S = 0.0005


class NetworkModel:
    """Produces one-way message latencies: a constant ``delay`` in seconds."""

    def __init__(self, delay: float = DEFAULT_NETWORK_DELAY_S) -> None:
        if delay < 0:
            raise ConfigurationError(f"network delay must be >= 0, got {delay}")
        self.delay = float(delay)

    def sample(self) -> float:
        """One-way latency for a single message, in seconds."""
        return self.delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkModel(delay={self.delay})"
