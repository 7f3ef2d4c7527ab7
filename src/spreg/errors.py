"""Exception hierarchy and the type rules shared by every input gate.

Plain ValueError marks bad numeric inputs; the classes below mark what
callers (and the CLI exit-code mapping) need to tell apart.
``checked_int`` and ``checked_float`` are the one definition of an integer
and a real number for configs, scenarios, trace and wire frames, event
files, and the step index and sampled token of a stream. ``read_json``
reads a config, scenario or pattern file, ``read_fields`` builds a
dataclass from a JSON object, and ``read_value`` reads a JSON value by its
type hint, so each field's type is written once, in its dataclass.
``checked_object`` holds their rule for keys, which wire requests and
trace records share: an unknown key is an error, and so is a missing one.
``check_fields`` applies the same rule to every field of a config,
scenario or segment built in process, and stores what it reads.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from types import UnionType
from typing import get_args, get_origin, get_type_hints


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
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return float(value)
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def read_json(source, what: str):
    """Parse a UTF-8 JSON file, a Path or an importlib.resources path, or raise ConfigError."""
    try:
        return json.loads(source.read_text(encoding="utf-8"))
    except (OSError, RecursionError, ValueError) as exc:
        raise ConfigError(f"cannot load {what} {source}: {exc}") from exc


# The JSON name of each type ``json.loads`` returns, for error messages.
_JSON_TYPES = {
    type(None): "null", bool: "boolean", int: "number", float: "number", str: "string", list: "array"
}


def checked_object(body, what: str, keys=None, required=()) -> dict:
    """``body`` if it is a JSON object (a dict), else ValueError naming its JSON type.

    With ``keys``, a key of ``body`` that is not in ``keys`` is an error too,
    and so is a missing key of ``required``.
    """
    if not isinstance(body, dict):
        kind = _JSON_TYPES.get(type(body), type(body).__name__)
        raise ValueError(f"{what} must be an object, got {kind}")
    if keys is not None:
        unknown = body.keys() - keys
        if unknown:
            raise ValueError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    for key in required:
        if key not in body:
            raise ValueError(f"{what} requires {key}")
    return body


_type_hints = functools.cache(get_type_hints)


def read_fields(cls, body, what: str):
    """Build the dataclass ``cls`` from the JSON object ``body``, or raise ValueError.

    Each key is read by ``read_value`` as its field's type hint. A missing
    key takes the field's default, a ``doc`` entry is skipped, and any
    other key is an error. A caller that has already built a field's value
    puts it in ``body``, where ``read_value`` takes it as it is.
    """
    kinds = _type_hints(cls)
    checked_object(body, what, kinds.keys() | {"doc"})
    values = {}
    for f in fields(cls):
        if f.name in body:
            values[f.name] = read_value(body[f.name], kinds[f.name], f"{what}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{what} requires {f.name}")
    return cls(**values)


def check_fields(obj) -> None:
    """Raise ConfigError unless each field of the dataclass ``obj`` being built,
    by its bare name, passes ``read_value``, and store what it returns, as the
    JSON path would (a tuple for a list, no ``doc`` entry); a dataclass field
    must hold an instance."""
    kinds = _type_hints(type(obj))
    try:
        for f in fields(obj):
            value, kind = getattr(obj, f.name), kinds[f.name]
            if is_dataclass(kind) and not isinstance(value, kind):
                raise ValueError(f"{f.name} must be a {kind.__name__}, got {value!r}")
            object.__setattr__(obj, f.name, read_value(value, kind, f.name))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def read_value(value, kind, what: str):
    """``value`` as the type hint ``kind``, or a ValueError naming ``what``.

    An ``int`` takes only an integer (not a bool, not 2.5) no larger than
    ``sys.maxsize``, the largest bound a deque or list takes; a ``float``
    only a finite number; a ``bool`` only true or false; a ``str`` only a
    string; an ``Enum`` one of its values; a dataclass an object, read by
    ``read_fields`` as ``what.field``; ``X | None`` null or an ``X``;
    ``tuple[X, ...]`` a list of ``X``; ``Mapping[E, X]``, for an ``Enum``
    ``E``, an object whose keys are values of ``E`` (a ``doc`` entry is
    skipped), each read as an ``X`` named ``what.key``. In process, a tuple
    stands for a list, and an instance for a class or union of classes.
    """
    origin = get_origin(kind)
    if origin is None:
        if kind is int:
            number = checked_int(value, what)
            if number > sys.maxsize:
                raise ValueError(f"{what} must be at most {sys.maxsize}, got {number}")
            return number
        if kind is float:
            return checked_float(value, what)
        if kind is bool:
            if isinstance(value, bool):
                return value
            raise ValueError(f"{what} must be true or false, got {value!r}")
        if kind is str:
            if isinstance(value, str):
                return value
            raise ValueError(f"{what} must be a string, got {value!r}")
        if issubclass(kind, Enum):
            try:
                return kind(value)
            except ValueError:
                raise ValueError(f"{what} must be one of {_choices(kind)}, got {value!r}") from None
        if isinstance(value, kind):
            return value
        if is_dataclass(kind):
            return read_fields(kind, value, what)
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r}")
    args = get_args(kind)
    if type(None) in args:
        return None if value is None else read_value(value, args[0], what)
    if origin is UnionType:
        if isinstance(value, args):
            return value
        names = ", ".join(arg.__name__ for arg in args)
        raise ValueError(f"{what} must be one of {names}, got {value!r}")
    if origin is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(read_value(item, args[0], what) for item in value)
        raise ValueError(f"{what} must be a list, got {value!r}")
    if origin is Mapping:
        key_kind, entry_kind = args
        entries = {}
        for key, entry in checked_object(value, what).items():
            if key == "doc":
                continue
            try:
                member = key_kind(key)
            except ValueError:
                raise ValueError(f"{what} key {key!r} must be one of {_choices(key_kind)}") from None
            entries[member] = read_value(entry, entry_kind, f"{what}.{member.value}")
        return entries
    raise TypeError(f"{what} has no JSON reading for {kind!r}")


def _choices(kind) -> str:
    return ", ".join(member.value for member in kind)
