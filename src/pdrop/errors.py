"""The package's one exception class, and the one line the CLI prints for
an error: a library error names each bad value in full, and only the CLI
cuts it, at the print."""

# the most characters of an error message the CLI prints: with the longer
# prefix ("i/o error: ") and its newline, a line is at most 198
LINE_CHARS = 186


def one_line(message) -> str:
    """``message`` as one line of at most LINE_CHARS characters: line
    breaks become spaces, and past LINE_CHARS its middle is elided, so that
    its start and its end both show."""
    text = " ".join(str(message).splitlines())
    if len(text) <= LINE_CHARS:
        return text
    head = (LINE_CHARS - 3) // 2
    return text[:head] + "..." + text[len(text) - (LINE_CHARS - 3 - head):]


class ConfigError(ValueError):
    """Every library error: a bad config, schedule, strategy, count,
    sequence or fixture, or operands whose shapes disagree."""
