"""JSON configuration: the one gate from outside configuration to a ControllerConfig.

``config_from_dict`` is the only function that turns outside configuration
(a ``--config`` file, ``serve --config`` or a wire ``init.config``) into a
``ControllerConfig``. A dict it accepts builds a Controller that runs;
anything else raises ``ConfigError`` naming the bad key or value. The
whole config, its sections and the guidance table are read by one call to
``errors.read_fields``, which states the type rule (an unknown key is an
error, any object may carry a ``doc`` entry, which is skipped), and inline
patterns are read as ``PatternSet`` reads a pattern file. Apart from the
``sys.maxsize`` bound on integers the gate checks types and finiteness,
not size. The ``patterns`` entry may be null (packaged defaults), a path
to a pattern file (resolved against the config file's directory), or an
inline pattern object.
"""

from __future__ import annotations

from pathlib import Path

from .controller import ControllerConfig
from .errors import ConfigError, checked_object, read_fields, read_json
from .plan_tracker import PatternSet

__all__ = ["config_from_dict", "load_config_dict"]


def config_from_dict(d: dict, vocab_size: int | None = None) -> ControllerConfig:
    """Build a ControllerConfig; ``vocab_size`` overrides the dict's own."""
    try:
        checked_object(d, "config")
        if vocab_size is not None:
            d = {**d, "vocab_size": vocab_size}
        patterns_spec = d.get("patterns")
        if patterns_spec is None:
            patterns = None
        elif isinstance(patterns_spec, str):
            patterns = PatternSet.from_file(patterns_spec)
        elif isinstance(patterns_spec, dict):
            patterns = PatternSet(patterns_spec)
        else:
            raise ValueError("patterns must be null, a path, or an inline object")
        return read_fields(ControllerConfig, d, "config", patterns=patterns)
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
