"""Exception hierarchy shared by all champagne modules, and the checks that
turn a malformed JSON input file into a ConfigurationError."""

import json


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


def _check_keys(where: str, obj, keys) -> dict:
    """obj, if it is a JSON object with exactly the given keys; otherwise
    ConfigurationError naming where and the keys unknown or missing."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} is not a JSON object")
    unknown = sorted(set(obj) - set(keys))
    missing = sorted(set(keys) - set(obj))
    if unknown or missing:
        raise ConfigurationError(
            f"{where}: unknown keys {unknown}, missing keys {missing}")
    return obj


def _read_json(path: str, keys) -> dict:
    """The JSON object in the file at path, checked by _check_keys."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:       # JSONDecodeError, UnicodeDecodeError
            raise ConfigurationError(f"{path} is not JSON: {exc}") from None
    return _check_keys(path, obj, keys)
