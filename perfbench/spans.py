"""In-memory span recorder for calls into a Python package.

A span is opened around every call into a public function or method of
the package (a name with a leading ``_`` or ``<`` in any part is skipped)
and closed when that call returns or raises. Each span holds its name,
start and end (``time.perf_counter`` seconds), the index of its parent
span (-1 at top level), the row count and element count of the call's
first array argument, and the row count of the array it returned.

The recorder hooks ``sys.setprofile``, so it sees calls made from inside
the package as well as calls into it, and it costs nothing once stopped.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass

NAME, START, END, PARENT, ROWS, SIZE, OUT_ROWS = range(7)


def _rows_and_size(value):
    shape = getattr(value, "shape", None)
    if not isinstance(shape, tuple) or not hasattr(value, "ndim"):
        return None
    return (shape[0] if shape else 1), int(value.size)


class SpanRecorder:
    """Collects spans while active; use as a context manager, possibly
    several times. ``spans`` is a list of lists indexed by the constants
    ``NAME`` .. ``OUT_ROWS``."""

    def __init__(self, package):
        self._pkg_dir = os.path.dirname(os.path.abspath(package.__file__)) + os.sep
        self._names = {}
        self._stack = []
        self.spans = []

    def span_name(self, code):
        """Span name for a code object, or None when it is not recorded."""
        try:
            return self._names[code]
        except KeyError:
            pass
        name = None
        path = os.path.abspath(code.co_filename)
        if path.startswith(self._pkg_dir):
            qual = code.co_qualname.replace("<locals>.", "")
            if not any(part.startswith(("_", "<")) for part in qual.split(".")):
                module = os.path.splitext(path[len(self._pkg_dir):])[0].replace(os.sep, ".")
                name = f"{module}.{qual}"
        self._names[code] = name
        return name

    def _profile(self, frame, event, arg):
        if event == "call":
            name = self.span_name(frame.f_code)
            if name is None:
                return
            rows = size = None
            code = frame.f_code
            local = frame.f_locals
            for var in code.co_varnames[:code.co_argcount]:
                found = _rows_and_size(local.get(var))
                if found is not None:
                    rows, size = found
                    break
            parent = self._stack[-1][1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, rows, size, None]
            self.spans.append(span)
            self._stack.append((frame, len(self.spans) - 1))
            span[START] = time.perf_counter()
        elif event == "return" and self._stack and self._stack[-1][0] is frame:
            end = time.perf_counter()
            _, index = self._stack.pop()
            span = self.spans[index]
            span[END] = end
            out = _rows_and_size(arg)
            if out is not None:
                span[OUT_ROWS] = out[0]

    def __enter__(self):
        self._stack.clear()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        end = time.perf_counter()
        # spans still open when recording stopped end here
        for _, index in self._stack:
            self.spans[index][END] = end
        self._stack.clear()
        return False


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover.
    Children of one span never overlap (one thread), so summing their
    durations gives the covered time."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


@dataclass
class SpanTotals:
    calls: int = 0
    self_s: float = 0.0
    rows: int = 0
    size: int = 0
    out_rows: int = 0


def totals_by_name(spans) -> dict[str, SpanTotals]:
    out: dict[str, SpanTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        t = out.setdefault(span[NAME], SpanTotals())
        t.calls += 1
        t.self_s += own
        t.rows += span[ROWS] or 0
        t.size += span[SIZE] or 0
        t.out_rows += span[OUT_ROWS] or 0
    return out


def write_jsonl(spans, path) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                "parent": s[PARENT], "rows": s[ROWS],
            }) + "\n")
