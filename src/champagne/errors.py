"""Exception hierarchy shared by all champagne modules, and the package's
file formats: the checks that turn a malformed JSON input file into a
ConfigurationError, and the one writer of each kind of file the package
writes (JSON, CSV and whitespace-separated plot data)."""

import dataclasses
import json
import types
import typing


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


# the JSON values a field of each annotated type accepts
_JSON_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
               bool: (bool, "true or false"), str: (str, "a string"),
               tuple: (list, "an array"), dict: (dict, "an object"),
               type(None): (type(None), "null")}


def _json_type(value, annotation) -> str | None:
    """None if value is JSON of the annotated type, else what it must be;
    true and false are of bool only, not numbers.  tuple[int, int] is an
    array of two integers, list[int] an array of integers."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (tuple, list):
        kinds = (args if origin is tuple else
                 args * (len(value) if isinstance(value, list) else 0))
        ok = (isinstance(value, list) and len(value) == len(kinds)
              and all(_json_type(v, t) is None for v, t in zip(value, kinds)))
        count = len(args) if origin is tuple else "any number of"
        return None if ok else (f"an array of {count} values, each "
                                f"{_JSON_TYPES[args[0]][1]}")
    union = origin in (typing.Union, types.UnionType)
    options = [typing.get_origin(a) or a for a in
               (args if union else (annotation,))]
    if isinstance(value, bool):
        ok = bool in options
    else:
        ok = any(isinstance(value, _JSON_TYPES[t][0]) for t in options)
    return None if ok else " or ".join(_JSON_TYPES[t][1] for t in options)


def _check_keys(where: str, obj, keys) -> dict:
    """obj, if it is a JSON object with exactly the given keys, each value
    JSON of its key's type; otherwise ConfigurationError naming where and
    the keys unknown or missing, or the value of the wrong type.  keys is
    a dict of names to types, or a dataclass: then they are its fields."""
    hints = keys
    if dataclasses.is_dataclass(keys):
        hints = typing.get_type_hints(keys)
        keys = [f.name for f in dataclasses.fields(keys)]
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} is not a JSON object")
    unknown = sorted(set(obj) - set(keys))
    missing = sorted(set(keys) - set(obj))
    if unknown or missing:
        raise ConfigurationError(
            f"{where}: unknown keys {unknown}, missing keys {missing}")
    for key, annotation in hints.items():
        wanted = _json_type(obj[key], annotation)
        if wanted:
            raise ConfigurationError(
                f"{where}: {key} is {obj[key]!r}, not {wanted}")
    return obj


def _read_json(path: str, keys) -> dict:
    """The JSON object in the file at path, checked by _check_keys."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:       # JSONDecodeError, UnicodeDecodeError
            raise ConfigurationError(f"{path} is not JSON: {exc}") from None
    return _check_keys(path, obj, keys)


def _write_json(path: str, obj) -> None:
    """obj as JSON: sorted keys, indent 2, str() of any value JSON has no
    type for, and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_csv(path: str, names, rows) -> None:
    """A header of the column names, then one line per row, each value by
    %.17g: a float that reads back bit for bit, and an integer below 2^53
    in magnitude as its digits.  names may be a dataclass: then the
    columns are its fields, and the rows its instances."""
    if dataclasses.is_dataclass(names):
        rows = map(dataclasses.astuple, rows)
        names = [f.name for f in dataclasses.fields(names)]
    line = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def write_plot_data(path: str, xs, ys) -> None:
    """Two-column whitespace-separated file for direct plotting."""
    with open(path, "w") as fh:
        for x, y in zip(xs, ys):
            fh.write("%.17g %.17g\n" % (x, y))
