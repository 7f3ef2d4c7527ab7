r"""Structural step classification from incrementally decoded text.

A bounded tail of recent surface text is scanned for keyword and syntax
cues; the most recent match decides the active step type, ties at the
same position break by priority (conclusion > action > observation >
reasoning), and when nothing matches the previous type sticks.

The scan is incremental. ``classify`` rescans only the text ingested
since its last call plus the ``_OVERLAP`` characters before it, and keeps
the right-most match that earlier scans found before that point. A match
depends on the text up to one character past its end (the ``(?!\w)``
lookahead), so new text can only destroy or complete a match that reaches
the old end of the text: after ``"Result => 1 tool"``, ingesting ``"s"``
turns ``tool`` into ``tools`` and the type falls back to observation. Such
a match starts inside the rescanned region if it is shorter than
``_OVERLAP``, so the result equals a full scan of the tail, except in two
cases:

- A longer match. Keywords must be shorter than ``_OVERLAP``
  (the pattern file is rejected otherwise); regex cues can be unbounded.
  The default ``\bstep\s*\d+`` misses a ``step`` whose number arrives
  after more than 28 whitespace characters that an earlier scan already
  saw.
- A match that trimming creates. Cutting ``"ondef "`` to ``"def "`` at the
  front of the tail satisfies ``(?<!\w)def\s`` only because the ``n``
  before it is gone. Each match is judged with the text that preceded it
  when it was scanned, so the tracker sees this one only when a single
  scan covers the whole tail.

Patterns ship as a JSON data file so the cue vocabulary can be swapped
(for other languages or formats) without touching code.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import ConfigError, read_json, read_value

__all__ = ["StepType", "PatternSet", "PlanTracker", "GuidanceTable"]

# Characters of recent stream text the tracker scans.
_TAIL_LIMIT = 256
# Characters before the new text that each scan covers again: above the
# longest default match (13, "the answer is") plus one of lookahead.
_OVERLAP = 32


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
# Sorts below every match the tracker keeps: (stream position, -rank, step).
_NO_MATCH: tuple[int, int, StepType | None] = (-1, 0, None)


def _compile_keyword(keyword: str) -> re.Pattern:
    # Word-ish boundaries so "action" does not fire inside "reaction".
    return re.compile(rf"(?<!\w){re.escape(keyword)}(?!\w)", re.IGNORECASE)


@dataclass(frozen=True)
class Cues:
    """One step type's entry in a pattern file."""

    keywords: tuple[str, ...] = ()
    regex_cues: tuple[str, ...] = ()


class PatternSet:
    """Compiled per-step-type keyword and regex cues; immutable after load.

    ``spec`` maps every step type to its ``Cues``; it is read by
    ``errors.read_value``, so an unknown step type or entry key is an error.
    """

    def __init__(self, spec: dict):
        try:
            entries = read_value(spec, Mapping[StepType, Cues], "patterns")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self._patterns: list[tuple[StepType, re.Pattern]] = []
        for step in StepType:
            entry = entries.get(step)
            if entry is None:
                raise ConfigError(f"pattern file missing step type {step.value!r}")
            if not entry.keywords and not entry.regex_cues:
                raise ConfigError(f"step type {step.value!r} needs at least one pattern")
            for kw in entry.keywords:
                if len(kw) >= _OVERLAP:
                    raise ConfigError(
                        f"keyword for {step.value!r} must be shorter than {_OVERLAP} characters: {kw!r}"
                    )
                self._patterns.append((step, _compile_keyword(kw)))
            for cue in entry.regex_cues:
                try:
                    self._patterns.append((step, re.compile(cue)))
                except re.error as exc:
                    raise ConfigError(f"bad regex cue for {step.value!r}: {cue!r} ({exc})") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "PatternSet":
        return cls(read_json(Path(path), "pattern file"))

    @classmethod
    @functools.cache
    def default(cls) -> "PatternSet":
        """The packaged patterns, built once per process and shared."""
        return cls(read_json(resources.files("spreg") / "data" / "patterns.json", "pattern file"))


class PlanTracker:
    """Sticky classifier over a bounded tail of decoded stream text."""

    def __init__(self, patterns: PatternSet | None = None):
        self.patterns = patterns or PatternSet.default()
        self._tail = ""
        self._active = StepType.REASONING
        self._offset = 0  # stream position of tail[0]
        self._fresh = 0  # characters ingested since the last scan
        # Right-most match among those before the point the next scan
        # starts from.
        self._kept = _NO_MATCH

    @property
    def tail(self) -> str:
        return self._tail

    def ingest(self, token_text: str) -> None:
        """Append decoded token text; empty text (special tokens) is a no-op."""
        if not token_text:
            return
        tail = self._tail + token_text
        cut = max(0, len(tail) - _TAIL_LIMIT)
        self._tail = tail[cut:]
        self._offset += cut
        self._fresh += len(token_text)

    def classify(self) -> StepType:
        """Active step type; scans only the text that can hold a new match."""
        if self._fresh:
            tail, offset = self._tail, self._offset
            start = max(0, len(tail) - self._fresh - _OVERLAP)
            # No later text can change a match that starts before this.
            settled = offset + len(tail) - _OVERLAP
            kept = self._kept if self._kept[0] >= offset else _NO_MATCH
            best = kept
            for step, pattern in self.patterns._patterns:
                # Most cues do not occur in the new text; search says so
                # faster than an empty finditer.
                first = pattern.search(tail, start)
                if first is None:
                    continue
                rank = -_PRIORITY[step]
                for m in pattern.finditer(tail, first.start()):
                    found = (offset + m.start(), rank, step)
                    if found > best:
                        best = found
                    if found[0] < settled and found > kept:
                        kept = found
            self._kept = kept
            self._fresh = 0
            if best[2] is not None:
                self._active = best[2]
        return self._active


# lambda_base(tau) for each step type a guidance table does not set.
_LAMBDA_BASE = {
    StepType.REASONING: 1.5,
    StepType.ACTION: 1.8,
    StepType.OBSERVATION: 1.5,
    StepType.CONCLUSION: 1.8,
}


@dataclass(frozen=True)
class GuidanceTable:
    """Per-step-type base guidance scale lambda_base(tau).

    A step type missing from ``lambda_base`` takes its default (1.5 for
    reasoning and observation, 1.8 for action and conclusion), so a
    partial table changes only the entries it names; every entry must be
    > 0. The repair scale is lambda_base(tau) * (1 + beta * relative
    entropy excess) / (1 + repair_index); see ``repair.adaptive_scale``.
    """

    lambda_base: Mapping[StepType, float] = field(default_factory=dict)

    def __post_init__(self):
        table = {**_LAMBDA_BASE, **self.lambda_base}
        for step, value in table.items():
            if not value > 0:
                raise ConfigError(f"lambda_base[{step.value}] must be > 0, got {value}")
        object.__setattr__(self, "lambda_base", table)
