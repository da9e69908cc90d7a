"""Exception hierarchy shared by all champagne modules."""


class ChampagneError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ChampagneError):
    """Input is outside the mathematical domain of the requested quantity."""


class ConfigurationError(ChampagneError):
    """Inconsistent or invalid configuration (grids, windows, file formats)."""


class ModelRangeError(ChampagneError):
    """A semiclassical model was evaluated outside its range of validity."""


class FitError(ChampagneError):
    """Not enough data, or data inconsistent with the model being fitted."""


class ChartError(ChampagneError):
    """Local lattice chart could not be fitted within the residual budget."""


class TransportError(ChartError):
    """Chart transport failed: overlap too small or transition not integral."""


class SampleSizeError(ChampagneError):
    """Monte Carlo standard error exceeds the requested tolerance."""


class ConvergenceError(ChampagneError):
    """An iteration reached its cap before meeting its tolerance."""
