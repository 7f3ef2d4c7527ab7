"""Per-stream orchestration of the monitor-detect-repair loop.

One Controller owns the mutable state of a single decoding stream: the
entropy window, the control state machine, the plan tracker, the reference
pool, and the recent-token span. Each call to process_step consumes one
conditional logit vector and returns a Directive (what the host sampler
should do) plus an EventRecord (what happened, for logs and analysis).

Per-step order: process_step is the one validator of a step. It checks
the step order, the sampled-token report and both logit vectors, and takes
the entropy and log-probs of the conditional, before any stream state
changes. A step that raises has changed nothing, and the host retries the
same t; nothing after the commit re-checks or raises. Then the gradient
is taken against pre-step window statistics; the plan tracker ingests the
text of the previously sampled token; the detector decides; repair math
runs only on intervened steps; low-entropy steps feed the reference pool
(suppressed while intervening so the prior is never contaminated by our
own edits); finally the window absorbs the step's entropy. Unintervened
steps pass the input logits through bit-identical.

Buffers: a step keeps no |V|-sized array for the next one, apart from the
log-probs the pool admits. An intervened step calls the public math
functions of ``distributions`` and ``repair``, and passes as their keyword
buffers (``out``, ``shifted``, ``work``) arrays it already owns and that
would otherwise die: the float64 widening of the conditional holds the
directive's logits, the conditional log-probs (never admitted on such a
step) hold the output entropy's shifted values, and an external
reference's widening is normalized in place. It never writes into an
array the host passed: as_logits returns a float64 input uncopied, and
then the step allocates instead. A directive's logits are never written
after the step returns them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .detector import Decision, DecisionKind, DetectorConfig, Phase, SpikeDetector
from .distributions import (
    as_logits,
    entropy_and_logprobs,
    log_softmax,
    normalized_entropy,
    shannon_entropy,
)
from .errors import ConfigError, ProtocolError, checked_float, checked_int
from .monitor import EntropyWindow, entropy_gradient
from .plan_tracker import GuidanceTable, PatternSet, PlanTracker, StepType
from .repair import (
    ReferencePool,
    RepairParams,
    adaptive_scale,
    aggressive_recover,
    guided_logits,
    token_weights,
)

__all__ = [
    "Mode",
    "ControllerConfig",
    "Directive",
    "EventRecord",
    "StreamSummary",
    "Controller",
]


class Mode(str, Enum):
    NONE = "none"
    REPAIR = "repair"
    AGGRESSIVE = "aggressive"


class ReferenceSource(str, Enum):
    EXTERNAL = "external"
    POOL = "pool"
    UNIFORM = "uniform"
    NA = "n/a"


@dataclass(frozen=True)
class ControllerConfig:
    vocab_size: int
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    repair: RepairParams = field(default_factory=RepairParams)
    guidance: GuidanceTable = field(default_factory=GuidanceTable)
    patterns: PatternSet | None = None

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {self.vocab_size}")


@dataclass(frozen=True)
class Directive:
    """Per-step controller output for the host sampler."""

    logits: np.ndarray
    mode: Mode = Mode.NONE
    temperature_override: float | None = None  # set exactly in aggressive mode

    @property
    def intervened(self) -> bool:
        return self.mode is not Mode.NONE


@dataclass(frozen=True)
class EventRecord:
    """One serializable row per decoding step; carries every plotted quantity."""

    t: int
    entropy: float
    mu: float | None
    sigma: float | None
    gradient: float | None
    phase: Phase
    step_type: StepType
    spike: bool
    lambda_applied: float | None
    repair_index: int | None
    reference_source: ReferenceSource
    mode: Mode
    modified_entropy: float | None

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.value if isinstance(v, Enum) else v for k, v in d.items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "EventRecord":
        """Parse an event-file row; each field must have its exact JSON type."""

        def optional(check, key: str):
            return None if d[key] is None else check(d[key], key)

        if not isinstance(d["spike"], bool):
            raise ValueError(f"spike must be a boolean, got {d['spike']!r}")
        return cls(
            t=checked_int(d["t"], "t"),
            entropy=checked_float(d["entropy"], "entropy"),
            mu=optional(checked_float, "mu"),
            sigma=optional(checked_float, "sigma"),
            gradient=optional(checked_float, "gradient"),
            phase=Phase(d["phase"]),
            step_type=StepType(d["step_type"]),
            spike=d["spike"],
            lambda_applied=optional(checked_float, "lambda_applied"),
            repair_index=optional(checked_int, "repair_index"),
            reference_source=ReferenceSource(d["reference_source"]),
            mode=Mode(d["mode"]),
            modified_entropy=optional(checked_float, "modified_entropy"),
        )


@dataclass(frozen=True)
class StreamSummary:
    total_steps: int
    spikes: int
    repair_steps: int
    aggressive_recoveries: int
    mean_entropy: float | None  # None before the first step


def _scratch(z: np.ndarray, given) -> np.ndarray:
    """A |V| array the step may write: ``z`` if as_logits widened ``given``
    into it, else a new array like it.

    as_logits copies an array of any other dtype and returns a float64
    array as is, so a step writes into its own copy and never into the
    host's array.
    """
    copied = isinstance(given, np.ndarray) and given.dtype != np.float64
    return z if copied else np.empty_like(z)


def _checked_token(token_id, token_text) -> int | None:
    """Validate a sampled-token report before it changes any state."""
    if token_text is not None and not isinstance(token_text, str):
        raise ValueError(f"token_text must be a string, got {type(token_text).__name__}")
    return None if token_id is None else checked_int(token_id, "token_id")


class Controller:
    """State and step loop for one decoding stream.

    Calls on one controller must be externally serialized in step order;
    independent controllers may run in parallel and can share immutable
    config and pattern sets.
    """

    def __init__(self, config: ControllerConfig):
        if not isinstance(config, ControllerConfig):
            raise ConfigError(f"expected ControllerConfig, got {type(config).__name__}")
        self.config = config
        det = config.detector
        self._window = EntropyWindow(capacity=det.window, tail_size=det.n_grad)
        self._detector = SpikeDetector(det)
        self._tracker = PlanTracker(config.patterns)
        self._pool = ReferencePool(config.vocab_size, capacity=config.repair.pool_capacity)
        self._recent: list[int] = []
        self._next_t = 0
        self._awaiting_sample = False
        self._modes: Counter[Mode] = Counter()
        self._entropy_sum = 0.0

    # -- token feedback ----------------------------------------------------

    def notify_sampled(self, token_id: int | None, token_text: str | None = "") -> None:
        """Report the token the host sampled after the last process_step.

        At most one notification per step; the same information may instead
        arrive inline with the next process_step call.
        """
        token_id = _checked_token(token_id, token_text)
        if not self._awaiting_sample:
            raise ProtocolError("notify_sampled called twice for one step (or before any step)")
        self._awaiting_sample = False
        self._ingest_token(token_id, token_text)

    def _ingest_token(self, token_id: int | None, token_text: str) -> None:
        if token_id is not None:
            self._recent.append(token_id)
            span = self.config.repair.recent_window
            if len(self._recent) > span:
                del self._recent[:-span]
        if token_text:
            self._tracker.ingest(token_text)

    # -- main loop ----------------------------------------------------------

    def process_step(
        self,
        t: int,
        cond_logits,
        ref_logits=None,
        token_id: int | None = None,
        token_text: str | None = None,
    ) -> tuple[Directive, EventRecord]:
        """Consume one step's conditional logits and decide what to do.

        ``token_id``/``token_text`` describe the token sampled at t-1 and
        are ignored as duplicates if notify_sampled already reported it.
        ``ref_logits``, when given, is an externally computed reference
        distribution that takes precedence over the pool synthesis.
        """
        t = checked_int(t, "t")
        if t != self._next_t:
            raise ProtocolError(f"expected step {self._next_t}, got {t}")
        token_id = _checked_token(token_id, token_text)
        inline_token = token_id is not None or bool(token_text)
        if inline_token and not self._awaiting_sample:
            raise ProtocolError(f"step {t}: sampled token was already notified")
        vocab = self.config.vocab_size
        cond = as_logits(cond_logits, vocab)
        ref = None if ref_logits is None else as_logits(ref_logits, vocab)
        entropy, cond_logprobs = entropy_and_logprobs(cond)

        # Every input is valid; stream state changes only from here on.
        if inline_token:
            self._awaiting_sample = False
            self._ingest_token(token_id, token_text or "")
        self._next_t += 1

        mu, sigma = self._window.stats()
        gradient = self._gradient(entropy)
        step_type = self._tracker.classify()

        phase, decision = self._detector.advance(entropy, mu, sigma, gradient)
        directive, lam, source, modified_entropy = self._repair(
            (cond, cond_logits), cond_logprobs, (ref, ref_logits), entropy, mu, step_type, decision
        )

        if not directive.intervened and mu is not None and entropy < mu:
            self._pool.record(cond_logprobs)
        self._window.push(entropy)

        event = EventRecord(
            t=t,
            entropy=entropy,
            mu=mu,
            sigma=sigma,
            gradient=gradient,
            phase=phase,
            step_type=step_type,
            spike=decision.kind is DecisionKind.TRIGGER_REPAIR,
            lambda_applied=lam,
            repair_index=decision.repair_index,
            reference_source=source,
            mode=directive.mode,
            modified_entropy=modified_entropy,
        )
        self._modes[directive.mode] += 1
        self._entropy_sum += entropy
        self._awaiting_sample = True
        return directive, event

    def _gradient(self, entropy: float) -> float | None:
        n = self.config.detector.n_grad
        prior = self._window.tail(n - 1)
        if len(prior) < n - 1:
            return None
        return entropy_gradient([*prior, entropy])

    def _reference(
        self, ref: np.ndarray | None, ref_logits, work: np.ndarray
    ) -> tuple[np.ndarray, ReferenceSource]:
        if ref is not None:
            logprobs = log_softmax(ref, out=_scratch(ref, ref_logits), work=work)
            return logprobs, ReferenceSource.EXTERNAL
        if len(self._pool) > 0:
            return self._pool.synthesize(), ReferenceSource.POOL
        return self._pool.synthesize(), ReferenceSource.UNIFORM

    def _repair(
        self,
        cond_in: tuple[np.ndarray, object],
        cond_logprobs: np.ndarray,
        ref_in: tuple[np.ndarray | None, object],
        entropy: float,
        mu: float | None,
        step_type: StepType,
        decision: Decision,
    ) -> tuple[Directive, float | None, ReferenceSource, float | None]:
        """The directive, guidance scale, reference source and modified entropy of a step.

        ``cond_in`` and ``ref_in`` pair each validated vector with what the
        host passed. An intervened step writes only into arrays it owns: the
        widened inputs (dead once the log-probs exist), ``cond_logprobs``
        (the pool admits only unintervened steps) and the reference. At
        most four |V| float64 arrays are live at once.
        """
        cond, cond_logits = cond_in
        if decision.kind is DecisionKind.NO_ACTION:
            return Directive(logits=cond), None, ReferenceSource.NA, None
        params = self.config.repair
        out = _scratch(cond, cond_logits)
        ref, source = self._reference(*ref_in, work=out)
        if decision.kind is DecisionKind.AGGRESSIVE_RECOVER:
            lam = params.lambda_max
            out, temperature = aggressive_recover(cond_logprobs, ref, self._recent, params, out=out)
            directive = Directive(
                logits=out, mode=Mode.AGGRESSIVE, temperature_override=temperature
            )
        else:
            lam = adaptive_scale(
                entropy, mu, step_type, decision.repair_index, self.config.guidance, params
            )
            h_norm = normalized_entropy(entropy, self.config.vocab_size)
            weights = token_weights(ref, h_norm, params, work=out)
            weights *= lam  # the extrapolation factor, scale * weights
            out = guided_logits(cond_logprobs, ref, weights, out=out)
            directive = Directive(logits=out, mode=Mode.REPAIR)
        modified_entropy = shannon_entropy(out, shifted=cond_logprobs, work=ref)
        return directive, lam, source, modified_entropy

    def finish(self) -> StreamSummary:
        """Cumulative tallies; equal to a recount over the emitted events."""
        steps = self._modes.total()
        return StreamSummary(
            total_steps=steps,
            spikes=self._detector.repair_count,
            repair_steps=self._modes[Mode.REPAIR],
            aggressive_recoveries=self._modes[Mode.AGGRESSIVE],
            mean_entropy=self._entropy_sum / steps if steps else None,
        )
