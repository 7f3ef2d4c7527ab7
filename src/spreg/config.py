"""JSON configuration: the one gate from outside configuration to a ControllerConfig.

``config_from_dict`` is the only function that turns outside configuration
(a ``--config`` file, ``serve --config`` or a wire ``init.config``) into a
``ControllerConfig``. A dict it accepts builds a Controller that runs;
anything else raises ``ConfigError`` naming the bad key or value:

- an unknown key is an error;
- the config, each section and each guidance table must be an object;
- an integer field takes only an int (not a bool, not 2.5) no larger than
  ``sys.maxsize``, the largest bound a deque or list takes;
- a real-valued field takes only a finite int or float;
- inline patterns are checked as ``PatternSet`` checks a pattern file.

Apart from that bound the gate checks types and finiteness, not size.
Every section may carry a ``doc`` object describing its fields;
the gate ignores it. The ``patterns`` entry may be null (packaged
defaults), a path to a pattern file (resolved against the config file's
directory), or an inline pattern object.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from .controller import ControllerConfig
from .detector import DetectorConfig
from .errors import ConfigError, checked_float, checked_int, read_json, reject_unknown
from .plan_tracker import GuidanceTable, PatternSet, StepType
from .repair import RepairParams

__all__ = ["config_from_dict", "load_config_dict"]


def _object(value, what: str) -> dict:
    """``value`` without its ``doc`` entry; it must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {type(value).__name__}")
    return {k: v for k, v in value.items() if k != "doc"}


def _number(value, kind: type, what: str):
    """An int up to ``sys.maxsize`` for an ``int`` field, a finite float for a ``float`` field."""
    try:
        number = (checked_int if kind is int else checked_float)(value, what)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if kind is int and number > sys.maxsize:
        raise ConfigError(f"{what} must be at most {sys.maxsize}, got {number}")
    return number


def _dataclass_section(cls, d: dict, name: str):
    body = _object(d.get(name, {}), f"config section {name!r}")
    kinds = get_type_hints(cls)
    reject_unknown(body, kinds, name)
    return cls(**{k: _number(v, kinds[k], f"{name}.{k}") for k, v in body.items()})


def _guidance(d: dict) -> GuidanceTable:
    body = _object(d.get("guidance", {}), "config section 'guidance'")
    reject_unknown(body, ["lambda_base"], "guidance")
    table = dict(GuidanceTable().lambda_base)
    for key, value in _object(body.get("lambda_base", {}), "guidance.lambda_base").items():
        try:
            step = StepType(key)
        except ValueError:
            raise ConfigError(f"unknown guidance.lambda_base step type {key!r}") from None
        table[step] = _number(value, float, f"guidance.lambda_base.{key}")
    return GuidanceTable(lambda_base=table)


def config_from_dict(d: dict, vocab_size: int | None = None) -> ControllerConfig:
    """Build a ControllerConfig; ``vocab_size`` overrides the dict's own."""
    d = _object(d, "config")
    reject_unknown(d, [f.name for f in fields(ControllerConfig)], "config")
    if vocab_size is not None:
        d["vocab_size"] = vocab_size
    if "vocab_size" not in d:
        raise ConfigError("config requires vocab_size")

    patterns_spec = d.get("patterns")
    if patterns_spec is None:
        patterns = None
    elif isinstance(patterns_spec, str):
        patterns = PatternSet.from_file(patterns_spec)
    elif isinstance(patterns_spec, dict):
        patterns = PatternSet(patterns_spec)
    else:
        raise ConfigError("patterns must be null, a path, or an inline object")

    return ControllerConfig(
        vocab_size=_number(d["vocab_size"], int, "vocab_size"),
        detector=_dataclass_section(DetectorConfig, d, "detector"),
        repair=_dataclass_section(RepairParams, d, "repair"),
        guidance=_guidance(d),
        patterns=patterns,
    )


def load_config_dict(path: str | Path | None) -> dict:
    """Read a config file to a dict, resolving a relative patterns path.

    No path reads as an empty config.
    """
    if path is None:
        return {}
    path = Path(path)
    payload = read_json(path, "config")
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    patterns = payload.get("patterns")
    if isinstance(patterns, str):
        payload["patterns"] = str((path.parent / patterns).resolve())
    return payload

