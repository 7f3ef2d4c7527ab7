"""Exception hierarchy and the type rules shared by every input gate.

Plain ValueError is used for bad numeric inputs; the classes below mark
conditions that callers (and the CLI exit-code mapping) need to tell
apart. ``checked_int`` and ``checked_float`` are the one definition of an
integer and a real number for configs, scenarios, trace and wire frames,
event files, and the step index and sampled token of a stream.
``read_json`` is the one reader of a config, scenario or pattern file, and
``checked_object`` the one check that a JSON value is an object.
``read_fields`` is the one way from a JSON object to a dataclass, and
``read_value`` from a JSON value to a type hint: a whole config with its
sections and guidance table, a pattern file, scenarios and their
segments, and event-file rows. Each field's JSON type is its type hint,
so it is written once, in the dataclass. ``check_integers`` applies the
same integer rule to a config or scenario built in process.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
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


def checked_object(body, what: str) -> dict:
    """``body`` if it is a JSON object (a dict), else ValueError."""
    if not isinstance(body, dict):
        raise ValueError(f"{what} must be an object, got {type(body).__name__}")
    return body


_type_hints = functools.cache(get_type_hints)


def read_fields(cls, body, what: str, **given):
    """Build the dataclass ``cls`` from the JSON object ``body``, or raise ValueError.

    Each key is read by its field's type hint, by the rules of
    ``read_value``. A missing key takes the field's default, a ``doc``
    entry is skipped, and any other key ``cls`` does not define is an
    error. The fields in ``given`` are taken as they are (the caller has
    already read them) and not from ``body``.
    """
    checked_object(body, what)
    kinds = _type_hints(cls)
    unknown = body.keys() - kinds.keys() - {"doc"}
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    values = dict(given)
    for f in fields(cls):
        if f.name in body and f.name not in given:
            values[f.name] = read_value(body[f.name], kinds[f.name], f"{what}.{f.name}")
        elif f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{what} requires {f.name}")
    return cls(**values)


def check_integers(obj) -> None:
    """Raise ConfigError unless each ``int`` field of the dataclass ``obj``,
    and each entry of a ``tuple[int, ...]`` field, is an integer by the rule
    of ``read_value``."""
    kinds = _type_hints(type(obj))
    try:
        for f in fields(obj):
            value, kind = getattr(obj, f.name), kinds[f.name]
            if kind is int:
                read_value(value, int, f.name)
            elif kind == tuple[int, ...]:
                for item in value:
                    read_value(item, int, f.name)
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
    skipped), each read as an ``X`` named ``what.key``.
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
        if is_dataclass(kind):
            return read_fields(kind, value, what)
    args = get_args(kind)
    if type(None) in args:
        return None if value is None else read_value(value, args[0], what)
    if origin is tuple:
        if isinstance(value, list):
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
                choices = _choices(key_kind)
                raise ValueError(f"{what} key {key!r} must be one of {choices}") from None
            entries[member] = read_value(entry, entry_kind, f"{what}.{key}")
        return entries
    raise TypeError(f"{what} has no JSON reading for {kind!r}")


def _choices(kind) -> str:
    return ", ".join(member.value for member in kind)
