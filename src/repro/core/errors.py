"""Exception hierarchy shared by the whole reproduction."""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SimulationError(ReproError):
    """The discrete-event engine was driven into an invalid state."""


class ConfigurationError(ReproError):
    """An experiment or component was configured with invalid parameters."""


class StoreUnavailable(ReproError):
    """A SQLite store could not commit within its retry budget."""
