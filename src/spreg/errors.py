"""Exception hierarchy and the scalar type rules shared by every input gate.

Plain ValueError is used for bad numeric inputs; the classes below mark
conditions that callers (and the CLI exit-code mapping) need to tell
apart. ``checked_int`` and ``checked_float`` are the one definition of an
integer and a real number for configs, scenarios, trace and wire frames,
event files, and the step index and sampled token of a stream.
"""

from __future__ import annotations

import operator
import sys


class SpregError(Exception):
    """Base class for package-specific errors."""


class ConfigError(SpregError):
    """Invalid configuration, scenario, or pattern file (CLI exit code 2)."""


class ProtocolError(SpregError):
    """Out-of-order or duplicated calls on a stream (CLI exit code 3)."""


class TraceFormatError(SpregError):
    """Malformed trace or wire frame (CLI exit code 3)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def checked_int(value, what: str) -> int:
    """``value`` as an int if it is an integer (not a bool, not 2.5 or "3")."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def checked_float(value, what: str) -> float:
    """``value`` as a float if it is a finite int or float (not a bool)."""
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    ):
        return float(value)
    raise ValueError(f"{what} must be a finite number, got {value!r}")
