"""Exception types shared across the package."""


class PdropError(Exception):
    """Base class for all library errors."""


class ConfigError(PdropError, ValueError):
    """Invalid configuration, schedule, or strategy parameters, or a count out of range."""


class InputError(PdropError, ValueError):
    """Malformed sequence, fixture, or serialized data, or operands whose shapes disagree."""
