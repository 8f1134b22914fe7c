"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class StateError(RuntimeError):
    """A stateful structure (a trace or its potential records) is incomplete or stale."""


class NumericError(ArithmeticError):
    """A non-finite value surfaced where the computation requires finite data."""


class ConfigError(ValueError):
    """A configuration file, flag, or key could not be parsed or resolved."""


class FormatError(ValueError):
    """A binary payload does not match its declared format."""


class LengthError(FormatError):
    """A binary payload is shorter than its header promises."""


class ConsistencyError(FormatError):
    """Two related payloads disagree (e.g. image and label counts)."""
