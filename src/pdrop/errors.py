"""Exception types shared across the package, and how a message quotes a value."""

import reprlib

# the most characters of a value that an error message quotes: a config
# value may be as long as its file, and an error is one short line
QUOTED_CHARS = 80


def quoted(value) -> str:
    """``value``'s repr in at most QUOTED_CHARS characters, deep nesting elided."""
    text = reprlib.repr(value)
    return text if len(text) <= QUOTED_CHARS else text[:QUOTED_CHARS - 3] + "..."


class PdropError(Exception):
    """Base class for all library errors."""


class ConfigError(PdropError, ValueError):
    """Invalid configuration, schedule, or strategy parameters, or a count out of range."""


class InputError(PdropError, ValueError):
    """Malformed sequence, fixture, or serialized data, or operands whose shapes disagree."""
