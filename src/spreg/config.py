"""JSON configuration: the one gate from outside configuration to a ControllerConfig.

``config_from_dict`` is the only function that turns outside configuration
(a ``--config`` file, ``serve --config`` or a wire ``init.config``) into a
``ControllerConfig``. A dict it accepts builds a Controller that runs;
anything else raises ``ConfigError`` naming the bad key or value:

- each section is read by ``errors.read_fields``, which states the type
  rule: an unknown key is an error, an integer field takes only an int no
  larger than ``sys.maxsize`` and a real-valued field a finite number;
- the config, each section and each guidance table must be an object;
- inline patterns are checked as ``PatternSet`` checks a pattern file.

Apart from that bound the gate checks types and finiteness, not size.
Every section may carry a ``doc`` object describing its fields;
the gate ignores it. The ``patterns`` entry may be null (packaged
defaults), a path to a pattern file (resolved against the config file's
directory), or an inline pattern object.
"""

from __future__ import annotations

from pathlib import Path

from .controller import ControllerConfig
from .detector import DetectorConfig
from .errors import (
    ConfigError,
    checked_float,
    checked_object,
    read_fields,
    read_json,
    reject_unknown,
)
from .plan_tracker import GuidanceTable, PatternSet, StepType
from .repair import RepairParams

__all__ = ["config_from_dict", "load_config_dict"]


def _object(value, what: str) -> dict:
    """``value`` without its ``doc`` entry; it must be a JSON object."""
    return {k: v for k, v in checked_object(value, what).items() if k != "doc"}


def _section(d: dict, name: str) -> dict:
    return _object(d.get(name, {}), f"config section {name!r}")


def _guidance(d: dict) -> GuidanceTable:
    body = _section(d, "guidance")
    reject_unknown(body, ["lambda_base"], "guidance")
    table = dict(GuidanceTable().lambda_base)
    for key, value in _object(body.get("lambda_base", {}), "guidance.lambda_base").items():
        try:
            step = StepType(key)
        except ValueError:
            raise ValueError(f"unknown guidance.lambda_base step type {key!r}") from None
        table[step] = checked_float(value, f"guidance.lambda_base.{key}")
    return GuidanceTable(lambda_base=table)


def config_from_dict(d: dict, vocab_size: int | None = None) -> ControllerConfig:
    """Build a ControllerConfig; ``vocab_size`` overrides the dict's own."""
    try:
        d = _object(d, "config")
        if vocab_size is not None:
            d["vocab_size"] = vocab_size
        patterns_spec = d.get("patterns")
        if patterns_spec is None:
            patterns = None
        elif isinstance(patterns_spec, str):
            patterns = PatternSet.from_file(patterns_spec)
        elif isinstance(patterns_spec, dict):
            patterns = PatternSet(patterns_spec)
        else:
            raise ValueError("patterns must be null, a path, or an inline object")
        return read_fields(
            ControllerConfig,
            d,
            "config",
            detector=read_fields(DetectorConfig, _section(d, "detector"), "detector"),
            repair=read_fields(RepairParams, _section(d, "repair"), "repair"),
            guidance=_guidance(d),
            patterns=patterns,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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

