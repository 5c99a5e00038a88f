"""Exception types shared across the library."""


class QmlkitError(Exception):
    """Base class for all library errors."""


class CircuitError(QmlkitError, ValueError):
    """Invalid circuit construction, binding, or composition."""


class UnsupportedParameterError(QmlkitError, ValueError):
    """A parameter feeds a CRY angle, which the two-term shift rule cannot differentiate."""

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
