r"""Structural step classification from incrementally decoded text.

A bounded tail of recent surface text is scanned for keyword and syntax
cues, which ship as a swappable JSON data file; the most recent match
decides the active step type, ties at the same position break by priority
(conclusion > action > observation > reasoning), and when nothing matches
the previous type sticks.

A pattern set joins its cues into one expression, ``(?s:.*)(?=(?P<CONCLUSION>
...)|(?P<ACTION>...)|...)``, a group per step type in priority order, whose
``match`` stops at the right-most position where a cue matches. Each cue
keeps its meaning alone: leading flags such as ``(?i)`` become a scoped
``(?i:...)``; a numbered backreference or conditional (joining renumbers
groups), or any cue that compiles alone but not joined, is rejected.

``classify`` scans the text ingested since its last call plus the
``_OVERLAP`` characters before it. A match depends on the text up to one
character past its end (the ``(?!\w)`` lookahead), so new text can only
destroy or complete a match that reaches the old end of the text:
ingesting ``"s"`` after ``"Result => 1 tool"`` turns ``tool`` into
``tools``. Such a match starts in the rescanned region if it is shorter
than ``_OVERLAP``, so when that scan finds nothing and the newest match
lay there, the whole tail is scanned. This equals a full scan, except:

- A longer match. Keywords must be shorter than ``_OVERLAP`` (the pattern
  file is rejected otherwise), but regex cues can be unbounded: the default
  ``\bstep\s*\d+`` misses a number after more than 28 whitespace
  characters that an earlier scan already saw.
- A match that trimming creates. Cutting ``"ondef "`` to ``"def "`` at the
  front of the tail satisfies ``(?<!\w)def\s`` only because the ``n``
  before it is gone; only a whole-tail scan sees it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Mapping

from .errors import ConfigError, check_fields, read_json, read_value

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


# Step types in priority order: the first wins position ties.
_PRIORITY = (StepType.CONCLUSION, StepType.ACTION, StepType.OBSERVATION, StepType.REASONING)
# Global flags at the start of a cue, as in "(?i)\bstep\s*\d+".
_LEADING_FLAGS = re.compile(r"(?:\(\?[aiLmsux]+\))*")
# Group 1 is a numbered reference; escapes and character classes match whole.
_NUMBERED_REF = re.compile(r"(\\[1-9]|\(\?\(\d)|\\.|\[\^?\]?(?:\\.|[^\\\]])*\]", re.DOTALL)


def _joinable(cue: str) -> tuple[re.Pattern, str]:
    """``cue`` compiled alone and its source for the joined expression, or re.error."""
    alone = re.compile(cue)
    lead = _LEADING_FLAGS.match(cue)[0]
    source = f"(?{re.sub(r'[(?)]', '', lead)}:{cue[len(lead):]})"
    if any(ref[1] for ref in _NUMBERED_REF.finditer(cue)):
        raise re.error("joining the cues renumbers groups, which moves a numbered reference")
    # Fails for a "(?x)" comment that eats the ")", or a later global flag (Python 3.10).
    if re.compile(source).flags != re.UNICODE:
        raise re.error("a global flag after the start would apply to every cue")
    return alone, source


@dataclass(frozen=True)
class Cues:
    """One step type's entry in a pattern file."""

    keywords: tuple[str, ...] = ()
    regex_cues: tuple[str, ...] = ()


class PatternSet:
    """Per-step-type keyword and regex cues, joined into one expression; immutable after load.

    ``spec`` maps every step type to its ``Cues``; it is read by
    ``errors.read_value``, so an unknown step type or entry key is an error.
    """

    def __init__(self, spec: dict):
        try:
            entries = read_value(spec, Mapping[StepType, Cues], "patterns")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self._patterns: list[tuple[StepType, re.Pattern]] = []
        sources, names = {}, {step.name for step in StepType}
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
            # Word-ish boundaries so "action" does not fire inside "reaction".
            keywords = [rf"(?i)(?<!\w){re.escape(kw)}(?!\w)" for kw in entry.keywords]
            for cue in [*keywords, *entry.regex_cues]:
                try:
                    pattern, source = _joinable(cue)
                    if names & pattern.groupindex.keys():
                        raise re.error("its group name is taken by another cue or a step type")
                except re.error as exc:
                    raise ConfigError(f"bad regex cue for {step.value!r}: {cue!r} ({exc})") from exc
                names |= pattern.groupindex.keys()
                self._patterns.append((step, pattern))
                sources.setdefault(step, []).append(source)
        groups = "|".join(f"(?P<{step.name}>{'|'.join(sources[step])})" for step in _PRIORITY)
        self._newest = re.compile(f"(?s:.*)(?={groups})")

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
        self._fresh = 0  # characters ingested since the last scan
        self._last = -1  # tail index of the newest match; negative once trimmed, or for none

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
        self._last -= cut
        self._fresh += len(token_text)

    def classify(self) -> StepType:
        """Active step type; scans only the text that can hold a new match."""
        if self._fresh:
            tail, newest = self._tail, self.patterns._newest
            start = max(0, len(tail) - self._fresh - _OVERLAP)
            found = newest.match(tail, start)
            if found is None and self._last >= start:
                # New text destroyed the newest match: an older one decides.
                found, self._last = newest.match(tail), -1
            self._fresh = 0
            if found is not None:
                self._last = found.end()
                self._active = StepType[found.lastgroup]
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
        check_fields(self)
        table = {**_LAMBDA_BASE, **self.lambda_base}
        for step, value in table.items():
            if not value > 0:
                raise ConfigError(f"lambda_base[{step.value}] must be > 0, got {value}")
        object.__setattr__(self, "lambda_base", table)
