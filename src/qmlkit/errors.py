"""Exception types shared across the library, and the one rule for reading JSON files:
``_read_json`` opens them, ``_field`` and ``_numbers`` check what every loader reads."""

import json
import sys


class QmlkitError(Exception):
    """Base class for all library errors."""


class CircuitError(QmlkitError, ValueError):
    """Invalid circuit construction, binding, or composition."""


class UnsupportedParameterError(QmlkitError, ValueError):
    """A parameter the shift rule cannot differentiate. Kept public for callers that catch it;
    the library raises it nowhere, since every rotation angle, CRY included, has a rule."""

    def __init__(self, parameter_name: str, reason: str):
        super().__init__(f"parameter {parameter_name!r} is not shift-differentiable: {reason}")
        self.parameter_name = parameter_name


class ModelFormatError(QmlkitError, ValueError):
    """A persisted model or network file does not match its schema.

    ``field_path`` points at the offending field, e.g. ``gates[3].kind``.
    """

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


class NoSupportError(QmlkitError, RuntimeError):
    """Evidence has zero probability mass, so a conditional estimate is undefined."""


class DataError(QmlkitError, ValueError):
    """Dataset rows or labels violate a model's input contract."""


def _read_json(path):
    """The JSON value in the UTF-8 file at ``path``; a file that is not UTF-8 JSON raises
    ModelFormatError naming the file. A file that cannot be opened raises OSError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:  # also an integer past int's digit limit, or deep nesting
        raise ModelFormatError(str(path), f"not valid JSON: {exc}") from exc


def _field(data, key: str, kind: type, path: str):
    """``data[key]``: ``data`` must be an object holding ``key``, its value a ``kind`` (``object``
    for any). ``path`` is the object's field path, empty at a file's top level (``$``)."""
    if type(data) is not dict:
        raise ModelFormatError(path or "$", "expected an object")
    where = f"{path}.{key}" if path else key
    if key not in data:
        raise ModelFormatError(where, "missing field")
    if not isinstance(data[key], kind):
        raise ModelFormatError(where, f"expected {kind.__name__}, got {type(data[key]).__name__}")
    return data[key]


def _numbers(value, path: str, ndim: int, integers: bool = False):
    """``value``, checked to be finite JSON numbers (or integers) at rank ``ndim``: a number, a
    list of them, a list of equal-length such lists... A bool, a string, a value beyond the float
    range or a ragged list anywhere is not. Plain Python, as loaders call it on every gate."""
    flat, kinds = (value,), (int,) if integers else (int, float)
    for depth in range(ndim):
        if {*map(type, flat)} - {list} or depth and len({*map(len, flat)}) > 1:
            flat = (None,)  # not a list of this rank: rejected below
            break
        flat = [x for v in flat for x in v]
    for v in flat:
        if type(v) not in kinds or not (integers or abs(v) <= sys.float_info.max):
            what = ("integers" if integers else "finite numbers") + (f" in a {ndim}-d list" if ndim else "")
            raise ModelFormatError(path, f"expected {what}")
    return value
