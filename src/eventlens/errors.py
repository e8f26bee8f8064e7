"""Exception hierarchy shared across the package.

Every error raised deliberately by this package derives from
:class:`EventLensError`, so callers (and the CLI) can distinguish
data/model failures from programming errors.

``json_number`` reads a saved document's numbers: ``json.loads`` gives
exactly ``int`` or ``float`` for one, so a boolean, a string or a
fractional count is rejected instead of coerced. ``json_object`` and
``json_array`` likewise take only a ``dict`` where a document has an
object and only a ``list`` where it has an array, so an object's keys are
never read as an array's items.
"""

from __future__ import annotations


class EventLensError(Exception):
    """Base class for all errors raised by eventlens."""


class ProviderError(EventLensError):
    """The remote quote provider is unreachable or returned an error payload."""


class CacheError(EventLensError):
    """A cache file could not be written."""


class DataFormatError(EventLensError):
    """A payload or CSV document does not match the expected wire format."""


class BarInvariantError(DataFormatError):
    """A daily bar violates OHLC ordering or positivity rules."""


class PanelError(EventLensError):
    """Panel construction, slicing, or column lookup failed."""


class StatsError(EventLensError):
    """Correlation inputs are too short, mismatched, non-finite, or constant."""


class FitError(EventLensError):
    """The regression design is unusable or prediction inputs are missing."""


class MetricError(EventLensError):
    """Error-metric inputs are empty, mismatched, or contain zero denominators."""


class ConfigError(EventLensError):
    """A configuration document or scenario setup is inconsistent."""


def json_number(value: object, name: str, whole: bool = False) -> float:
    """``value`` as a float, or as an int if ``whole``, when it is a JSON
    number (a JSON integer if ``whole``); else ConfigError."""
    if type(value) is not int and (whole or type(value) is not float):
        raise ConfigError(f"{name} must be {'an integer' if whole else 'a number'}, got {value!r}")
    return value if whole else float(value)


def json_object(value: object, name: str) -> dict:
    """``value`` when it is a JSON object; else ConfigError."""
    if type(value) is not dict:
        raise ConfigError(f"{name} must be an object, got {type(value).__name__}")
    return value


def json_array(value: object, name: str) -> list:
    """``value`` when it is a JSON array; else ConfigError."""
    if type(value) is not list:
        raise ConfigError(f"{name} must be an array, got {type(value).__name__}")
    return value
