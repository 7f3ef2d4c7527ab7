"""JSON configuration: the one gate from outside configuration to a ControllerConfig.

``config_from_dict`` is the only function that turns outside configuration
(a ``--config`` file, ``serve --config`` or a wire ``init.config``) into a
``ControllerConfig``. A dict it accepts builds a Controller that runs;
anything else raises ``ConfigError`` naming the bad key or value:

- an unknown key is an error;
- the config, each section and each guidance table must be an object;
- an integer field takes only an int (not a bool, not 2.5);
- a real-valued field takes only a finite int or float;
- inline patterns are checked as ``PatternSet`` checks a pattern file.

The gate checks types and finiteness, not size: a window of 2**63 passes
here. Every section may carry a ``doc`` object describing its fields;
the gate ignores it. The ``patterns`` entry may be null (packaged
defaults), a path to a pattern file (resolved against the config file's
directory), or an inline pattern object.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from .controller import ControllerConfig
from .detector import DetectorConfig
from .errors import ConfigError, checked_float, checked_int
from .plan_tracker import GuidanceTable, PatternSet, StepType
from .repair import RepairParams

__all__ = ["config_from_dict", "load_config", "load_config_dict", "config_to_dict"]


def _object(value, what: str) -> dict:
    """``value`` without its ``doc`` entry; it must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {type(value).__name__}")
    return {k: v for k, v in value.items() if k != "doc"}


def _reject_unknown(body: dict, known, what: str) -> None:
    unknown = set(body) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(sorted(unknown))}")


def _number(value, kind: type, what: str):
    """An int for an ``int`` field, a finite float for a ``float`` field."""
    try:
        return (checked_int if kind is int else checked_float)(value, what)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _dataclass_section(cls, d: dict, name: str):
    body = _object(d.get(name, {}), f"config section {name!r}")
    kinds = get_type_hints(cls)
    _reject_unknown(body, kinds, name)
    return cls(**{k: _number(v, kinds[k], f"{name}.{k}") for k, v in body.items()})


def _guidance(d: dict) -> GuidanceTable:
    body = _object(d.get("guidance", {}), "config section 'guidance'")
    defaults = GuidanceTable()
    names = [f.name for f in fields(GuidanceTable)]
    _reject_unknown(body, names, "guidance")
    tables = {}
    for name in names:
        table = dict(getattr(defaults, name))
        for key, value in _object(body.get(name, {}), f"guidance.{name}").items():
            try:
                step = StepType(key)
            except ValueError:
                raise ConfigError(f"unknown guidance.{name} step type {key!r}") from None
            table[step] = _number(value, float, f"guidance.{name}.{key}")
        tables[name] = table
    return GuidanceTable(**tables)


def config_from_dict(d: dict, vocab_size: int | None = None) -> ControllerConfig:
    """Build a ControllerConfig; ``vocab_size`` overrides the dict's own."""
    d = _object(d, "config")
    _reject_unknown(d, [f.name for f in fields(ControllerConfig)], "config")
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
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    patterns = payload.get("patterns")
    if isinstance(patterns, str):
        payload["patterns"] = str((path.parent / patterns).resolve())
    return payload


def load_config(path: str | Path | None, vocab_size: int | None = None) -> ControllerConfig:
    return config_from_dict(load_config_dict(path), vocab_size=vocab_size)


def config_to_dict(config: ControllerConfig) -> dict:
    det, rep = config.detector, config.repair
    return {
        "vocab_size": config.vocab_size,
        "detector": {f: getattr(det, f) for f in det.__dataclass_fields__},
        "repair": {f: getattr(rep, f) for f in rep.__dataclass_fields__},
        "guidance": {
            "lambda_base": {s.value: v for s, v in config.guidance.lambda_base.items()},
            "gamma": {s.value: v for s, v in config.guidance.gamma.items()},
        },
        "patterns": None,
    }
