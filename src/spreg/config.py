"""JSON configuration: the one gate from outside configuration to a ControllerConfig.

``config_from_dict`` is the only function that turns outside configuration
(a ``--config`` file, ``serve --config`` or a wire ``init.config``) into a
``ControllerConfig``. It is a pure function of its JSON value and opens no
file. A dict it accepts builds a Controller that runs; anything else
raises ``ConfigError`` naming the bad key or value. The whole config, its
sections and the guidance table are read by one call to
``errors.read_fields``, which states the type rule (an unknown key is an
error, any object may carry a ``doc`` entry, which is skipped), and the
``patterns`` entry, null (packaged defaults) or a pattern object, is read
by ``PatternSet``. Apart from the ``sys.maxsize`` bound on integers the
gate checks types and finiteness, not size.

A config *file* may instead name a pattern file by a path relative to the
config file; ``load_config_dict`` reads it once, when it reads the config.
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
        spec = d.get("patterns")
        patterns = None if spec is None else PatternSet(spec)
        return read_fields(ControllerConfig, d, "config", patterns=patterns)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config_dict(path: str | Path | None) -> dict:
    """Read a config file to a dict that ``config_from_dict`` takes.

    A ``patterns`` path is read relative to the config file and replaced by
    the pattern object, so the dict needs no file afterwards. No path reads
    as an empty config.
    """
    if path is None:
        return {}
    path = Path(path)
    payload = read_json(path, "config")
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    patterns = payload.get("patterns")
    if isinstance(patterns, str):
        payload["patterns"] = read_json(path.parent / patterns, "pattern file")
    return payload
