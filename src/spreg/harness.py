"""Synthetic logit-stream generation and detection scoring.

The generator is a desk-scale stand-in for a language model: it emits one
dense logit vector per step whose entropy follows a scripted regime.
Distribution shapes are controlled by temperature-flattening a fixed
anchored profile until the requested entropy is met (bisection to 1e-6
nats), which moves entropy precisely without disturbing which token is
argmax. Spike overlays raise the target far enough above the generator's
own running window statistics to be unambiguous to a detector using the
mirrored configuration. Streams are deterministic given the scenario,
whose seed (>= 0) drives the generator.

generate() fits each record only when its iterator reaches it, so a host
can run every step before the next one is made; the ground truth (spike
steps, loop spans) comes from the scenario alone. An entropy target that
the vocabulary cannot reach is the one error that can stop a stream
part-way; every other scenario error is raised when the Scenario is built.

evaluate() scores an event log against the injected ground truth with a
step tolerance, reporting detection precision and recall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator

import numpy as np

from .controller import EventRecord
from .detector import DetectorConfig
from .distributions import check_vocab_size, shannon_entropy
from .errors import ConfigError, check_fields, checked_object, read_fields, read_json
from .monitor import EntropyWindow
from .trace_io import TraceRecord

__all__ = [
    "StableRegime",
    "DriftRegime",
    "LoopRegime",
    "SpikeInjection",
    "Scenario",
    "GroundTruth",
    "Metrics",
    "generate",
    "evaluate",
    "BUILTIN_SCENARIOS",
]

BUILTIN_SCENARIOS = ("stable", "fig1-like", "loop50")

_ANCHOR_BOOST = 3.0
_ANCHOR_GAP = 0.05
_NOISE_SCALE = 0.3
_FIT_TOL = 1e-6
_SPIKE_MARGIN = 0.1


@dataclass(frozen=True)
class StableRegime:
    steps: int
    target_entropy: float
    jitter: float = 0.0
    anchors: tuple[int, ...] = ()


@dataclass(frozen=True)
class DriftRegime:
    steps: int
    slope: float
    start_entropy: float | None = None
    anchors: tuple[int, ...] = ()


@dataclass(frozen=True)
class LoopRegime:
    """Argmax cycles through ``tokens`` while entropy ramps gently upward."""

    steps: int
    tokens: tuple[int, ...]
    start_entropy: float
    slope: float = 0.0


@dataclass(frozen=True)
class SpikeInjection:
    """Point overlay: flatten the distribution for ``width`` steps."""

    at_step: int
    magnitude: float
    width: int = 1


@dataclass(frozen=True)
class Scenario:
    vocab_size: int
    length: int
    seed: int = 0
    segments: tuple[StableRegime | DriftRegime | LoopRegime | SpikeInjection, ...] = ()

    def __post_init__(self):
        check_fields(self)  # first: each segment is then one of the segment classes
        for seg in self.segments:
            check_fields(seg)
        check_vocab_size(self.vocab_size)
        if self.length < 1:
            raise ConfigError(f"length must be >= 1, got {self.length}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        covered = 0
        for seg in self.segments:
            if isinstance(seg, SpikeInjection):
                if not 0 <= seg.at_step < self.length:
                    raise ConfigError(f"spike at_step {seg.at_step} outside [0, {self.length})")
                if seg.at_step + seg.width > self.length:
                    raise ConfigError("spike overlay extends past the scenario length")
                if seg.magnitude <= 0 or seg.width < 1:
                    raise ConfigError("spike needs magnitude > 0 and width >= 1")
                continue
            if seg.steps < 1:
                raise ConfigError(f"segment steps must be >= 1, got {seg.steps}")
            if isinstance(seg, DriftRegime) and seg.start_entropy is None and covered == 0:
                raise ConfigError("drift segment needs start_entropy when it opens a scenario")
            covered += seg.steps
            for token in self._segment_tokens(seg):
                if not 0 <= token < self.vocab_size:
                    raise ConfigError(f"token {token} outside the vocabulary")
            if isinstance(seg, LoopRegime):
                if not seg.tokens:
                    raise ConfigError("loop needs at least one token to cycle")
                if seg.start_entropy <= 0:
                    raise ConfigError("loop start_entropy must be > 0")
            if isinstance(seg, StableRegime) and (seg.target_entropy <= 0 or seg.jitter < 0):
                raise ConfigError("stable regime needs target_entropy > 0 and jitter >= 0")
        if covered != self.length:
            raise ConfigError(
                f"base regimes cover {covered} steps but the scenario length is {self.length}"
            )

    @staticmethod
    def _segment_tokens(seg) -> tuple[int, ...]:
        if isinstance(seg, LoopRegime):
            return seg.tokens
        return getattr(seg, "anchors", ())

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        try:
            segments = checked_object(d, "scenario").get("segments", [])
            if not isinstance(segments, list):
                raise ValueError(f"scenario.segments must be a list, got {segments!r}")
            segments = tuple(_segment_from_dict(s) for s in segments)
            return read_fields(cls, d, "scenario", segments=segments)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        return cls.from_dict(read_json(Path(path), "scenario"))

    @classmethod
    def builtin(cls, name: str) -> "Scenario":
        if name not in BUILTIN_SCENARIOS:
            raise ConfigError(
                f"unknown scenario {name!r} (built in: {', '.join(BUILTIN_SCENARIOS)})"
            )
        source = resources.files("spreg") / "data" / "scenarios" / f"{name}.json"
        return cls.from_dict(read_json(source, "scenario"))


_SEGMENT_KINDS = {
    "stable": StableRegime,
    "drift": DriftRegime,
    "loop": LoopRegime,
    "spike": SpikeInjection,
}


def _segment_from_dict(d: dict):
    kind = checked_object(d, "segment").get("kind")
    if kind not in _SEGMENT_KINDS:
        raise ConfigError(f"unknown segment kind {kind!r}")
    body = {k: v for k, v in d.items() if k != "kind"}
    return read_fields(_SEGMENT_KINDS[kind], body, f"{kind} segment")


@dataclass(frozen=True)
class GroundTruth:
    injected_spike_steps: tuple[int, ...] = ()
    loop_spans: tuple[tuple[int, int], ...] = ()


def _fit_temperature(profile: np.ndarray, target: float, tol: float = _FIT_TOL) -> np.ndarray:
    """Scale ``profile`` so its softmax entropy hits ``target`` within tol."""
    lo, hi = 1e-4, 1e6
    if not shannon_entropy(profile / lo) - tol <= target <= shannon_entropy(profile / hi) + tol:
        raise ConfigError(f"entropy target {target:.4f} is unreachable for this vocabulary")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        h = shannon_entropy(profile / mid)
        if abs(h - target) <= tol:
            return profile / mid
        if h < target:
            lo = mid
        else:
            hi = mid
    return profile / math.sqrt(lo * hi)


def _boost(profile: np.ndarray, anchors) -> np.ndarray:
    """Boost ``anchors`` in ``profile`` in rank order, so the first is argmax."""
    for rank, token in enumerate(anchors):
        profile[token] = _ANCHOR_BOOST - _ANCHOR_GAP * rank
    return profile


def generate(
    scenario: Scenario,
    detector: DetectorConfig | None = None,
) -> tuple[Iterator[TraceRecord], GroundTruth]:
    """A one-pass iterator over the per-step logit records, and the injected ground truth.

    Each record is fitted when the iterator reaches it; the ground truth
    comes from the scenario alone. ``detector`` supplies the window size and
    thresholds the spike overlay calibrates against (defaults mirror
    DetectorConfig defaults), so a "3 sigma" injection is meaningful to the
    detector under test.
    """
    spikes = sorted(
        (seg for seg in scenario.segments if isinstance(seg, SpikeInjection)),
        key=lambda s: s.at_step,
    )
    base_segments = [seg for seg in scenario.segments if not isinstance(seg, SpikeInjection)]
    loop_spans: list[tuple[int, int]] = []
    t = 0
    for seg in base_segments:
        if isinstance(seg, LoopRegime):
            loop_spans.append((t, t + seg.steps))
        t += seg.steps
    truth = GroundTruth(
        injected_spike_steps=tuple(s.at_step for s in spikes),
        loop_spans=tuple(loop_spans),
    )
    rng = np.random.default_rng(scenario.seed)
    return _records(scenario.vocab_size, base_segments, spikes, rng, detector), truth


def _records(vocab_size, base_segments, spikes, rng, detector) -> Iterator[TraceRecord]:
    """Fit and yield each step's record in turn; ``generate`` describes the stream."""
    det = detector or DetectorConfig()
    window = EntropyWindow(capacity=det.window)
    # Raising the final tail point by n*(n+1)/6 * g_min lifts the fitted
    # slope to the pre-filter floor when the prefix is flat.
    gradient_lift = det.g_min * det.n_grad * (det.n_grad + 1) / 6.0

    spike_lookup: dict[int, SpikeInjection] = {}
    for spike in spikes:
        for offset in range(spike.width):
            spike_lookup[spike.at_step + offset] = spike

    t = 0
    prev_target: float | None = None
    prev_token: int | None = None
    spike_target: dict[int, float] = {}

    for seg in base_segments:
        # A fixed logit shape per segment; without anchors its argmax is drawn at random.
        profile = rng.normal(0.0, _NOISE_SCALE, vocab_size)
        profile = _boost(profile, Scenario._segment_tokens(seg) or (int(rng.integers(vocab_size)),))
        if isinstance(seg, DriftRegime):
            if seg.start_entropy is not None:
                drift_base, drift_offset = seg.start_entropy, 0
            else:  # Scenario rejects a drift without start_entropy that opens it
                drift_base, drift_offset = prev_target, 1
        for i in range(seg.steps):
            if isinstance(seg, StableRegime):
                target = seg.target_entropy
                if seg.jitter > 0:
                    target += float(rng.uniform(-0.9, 0.9)) * seg.jitter
                step_profile = profile
            elif isinstance(seg, DriftRegime):
                target = drift_base + seg.slope * (i + drift_offset)
                step_profile = profile
            else:
                target = seg.start_entropy + seg.slope * i
                top = seg.tokens[i % len(seg.tokens)]
                step_profile = _boost(profile.copy(), [top, *(a for a in seg.tokens if a != top)])
            prev_target = target  # a following drift continues from the base, not a spike

            spike = spike_lookup.get(t)
            if spike is not None:
                if spike.at_step not in spike_target:
                    mu, sigma = window.stats() if len(window) else (target, 0.0)
                    spike_target[spike.at_step] = (
                        max(mu + spike.magnitude * sigma, mu + gradient_lift, det.h_min)
                        + _SPIKE_MARGIN
                    )
                target = spike_target[spike.at_step]

            logits = _fit_temperature(step_profile, target).astype(np.float32)
            measured = shannon_entropy(logits)
            window.push(measured)
            yield TraceRecord(t=t, logits=logits, token_id=prev_token, token_text="")
            prev_token = int(np.argmax(logits))
            t += 1


@dataclass(frozen=True)
class Metrics:
    """Detection scores against the injected spikes; mode counts are in ``StreamSummary``."""

    precision: float
    recall: float
    detections: int
    injections: int
    matched: int
    max_entropy: float


def evaluate(
    events: list[EventRecord], truth: GroundTruth, tolerance_steps: int = 2
) -> Metrics:
    """Score detections against injected spikes within a step tolerance.

    Each injection is matched to at most one detection. With no detections
    (or no injections) the corresponding rate is vacuously 1.0.
    """
    if not events:
        raise ValueError("no events to evaluate")
    last_t = events[-1].t
    if any(step > last_t for step in truth.injected_spike_steps):
        raise ValueError("ground truth refers to steps beyond the event log")

    detections = [e.t for e in events if e.spike]
    injections = list(truth.injected_spike_steps)
    unmatched = set(injections)
    matched = 0
    for det_t in detections:
        candidates = [s for s in unmatched if abs(s - det_t) <= tolerance_steps]
        if candidates:
            unmatched.remove(min(candidates, key=lambda s: abs(s - det_t)))
            matched += 1

    precision = matched / len(detections) if detections else 1.0
    recall = matched / len(injections) if injections else 1.0
    return Metrics(
        precision=precision,
        recall=recall,
        detections=len(detections),
        injections=len(injections),
        matched=matched,
        max_entropy=max(e.entropy for e in events),
    )
