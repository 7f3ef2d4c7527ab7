"""Structural step classification from incrementally decoded text.

A bounded tail of recent surface text is scanned for keyword and syntax
cues; the most recent match decides the active step type, ties at the
same position break by priority (conclusion > action > observation >
reasoning), and when nothing matches the previous type sticks.

Patterns ship as a JSON data file so the cue vocabulary can be swapped
(for other languages or formats) without touching code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import ConfigError, read_json

__all__ = ["StepType", "PatternSet", "PlanTracker", "GuidanceTable"]

# Characters of recent stream text the tracker scans.
_TAIL_LIMIT = 256


class StepType(str, Enum):
    REASONING = "reasoning"
    ACTION = "action"
    OBSERVATION = "observation"
    CONCLUSION = "conclusion"


# Lower rank wins position ties.
_PRIORITY = {
    StepType.CONCLUSION: 0,
    StepType.ACTION: 1,
    StepType.OBSERVATION: 2,
    StepType.REASONING: 3,
}


def _compile_keyword(keyword: str) -> re.Pattern:
    # Word-ish boundaries so "action" does not fire inside "reaction".
    return re.compile(rf"(?<!\w){re.escape(keyword)}(?!\w)", re.IGNORECASE)


def _strings(entry: dict, key: str, step: StepType) -> list[str]:
    values = entry.get(key, [])
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ConfigError(f"{key} for {step.value!r} must be a list of strings")
    return values


class PatternSet:
    """Compiled per-step-type keyword and regex cues; immutable after load."""

    def __init__(self, spec: dict[str, dict[str, list[str]]]):
        if not isinstance(spec, dict):
            raise ConfigError(f"patterns must be an object, got {type(spec).__name__}")
        self._patterns: list[tuple[StepType, re.Pattern]] = []
        for step in StepType:
            entry = spec.get(step.value)
            if entry is None:
                raise ConfigError(f"pattern file missing step type {step.value!r}")
            if not isinstance(entry, dict):
                raise ConfigError(f"patterns for {step.value!r} must be an object")
            keywords = _strings(entry, "keywords", step)
            cues = _strings(entry, "regex_cues", step)
            if not keywords and not cues:
                raise ConfigError(f"step type {step.value!r} needs at least one pattern")
            for kw in keywords:
                self._patterns.append((step, _compile_keyword(kw)))
            for cue in cues:
                try:
                    self._patterns.append((step, re.compile(cue)))
                except re.error as exc:
                    raise ConfigError(f"bad regex cue for {step.value!r}: {cue!r} ({exc})") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "PatternSet":
        return cls(read_json(Path(path), "pattern file"))

    @classmethod
    def default(cls) -> "PatternSet":
        return cls(read_json(resources.files("spreg") / "data" / "patterns.json", "pattern file"))

    def last_match(self, text: str) -> StepType | None:
        """Step type of the latest (right-most) match in ``text``, if any."""
        best: tuple[int, int] | None = None  # (-start, priority) minimized
        best_step: StepType | None = None
        for step, pattern in self._patterns:
            start = -1
            for m in pattern.finditer(text):
                start = m.start()
            if start < 0:
                continue
            key = (-start, _PRIORITY[step])
            if best is None or key < best:
                best = key
                best_step = step
        return best_step


class PlanTracker:
    """Sticky classifier over a bounded tail of decoded stream text."""

    def __init__(self, patterns: PatternSet | None = None):
        self.patterns = patterns or PatternSet.default()
        self._tail = ""
        self._active = StepType.REASONING
        self._dirty = False

    @property
    def tail(self) -> str:
        return self._tail

    def ingest(self, token_text: str) -> None:
        """Append decoded token text; empty text (special tokens) is a no-op."""
        if not token_text:
            return
        self._tail = (self._tail + token_text)[-_TAIL_LIMIT:]
        self._dirty = True

    def classify(self) -> StepType:
        """Active step type; re-scans the tail only when it changed."""
        if self._dirty:
            matched = self.patterns.last_match(self._tail)
            if matched is not None:
                self._active = matched
            self._dirty = False
        return self._active


@dataclass(frozen=True)
class GuidanceTable:
    """Per-step-type base guidance scale lambda_base(tau).

    The repair scale is lambda_base(tau) * (1 + beta * relative entropy
    excess) / (1 + repair_index); see ``repair.adaptive_scale_raw``.
    """

    lambda_base: Mapping[StepType, float] = field(
        default_factory=lambda: {
            StepType.REASONING: 1.5,
            StepType.ACTION: 1.8,
            StepType.OBSERVATION: 1.5,
            StepType.CONCLUSION: 1.8,
        }
    )

    def __post_init__(self):
        for step in StepType:
            value = self.lambda_base.get(step)
            if value is None:
                raise ConfigError(f"lambda_base missing entry for {step.value}")
            if not value > 0:
                raise ConfigError(f"lambda_base[{step.value}] must be > 0, got {value}")
