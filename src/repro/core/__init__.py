"""Discrete-event simulation core.

This package provides the deterministic substrate every scheduler in the
reproduction runs on: an event heap with a monotonically advancing clock
(:mod:`repro.core.simulation`) and seeded random-number utilities
(:mod:`repro.core.rng`).  The constant network delay of Section 4.1 lives
with the engine that charges it (:mod:`repro.cluster.engine`).
"""

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.rng import make_rng, sample_without_replacement, spread_sample
from repro.core.simulation import Simulation

__all__ = [
    "ConfigurationError",
    "SimulationError",
    "Simulation",
    "make_rng",
    "sample_without_replacement",
    "spread_sample",
]
