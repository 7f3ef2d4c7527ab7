"""Exception hierarchy and the scalar type rules shared by every input gate.

Plain ValueError is used for bad numeric inputs; the classes below mark
conditions that callers (and the CLI exit-code mapping) need to tell
apart. ``checked_int`` and ``checked_float`` are the one definition of an
integer and a real number for configs, scenarios, trace and wire frames,
event files, and the step index and sampled token of a stream.
``read_json`` is the one reader of a config, scenario or pattern file;
``reject_unknown`` rejects the keys a config or scenario does not define.
"""

from __future__ import annotations

import json
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


def read_json(source, what: str):
    """Parse a UTF-8 JSON file, a Path or an importlib.resources path, or raise ConfigError."""
    try:
        return json.loads(source.read_text(encoding="utf-8"))
    except (OSError, RecursionError, ValueError) as exc:
        raise ConfigError(f"cannot load {what} {source}: {exc}") from exc


def reject_unknown(body: dict, known, what: str) -> None:
    """Raise ConfigError naming every key of ``body`` not in ``known``."""
    unknown = set(body) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
