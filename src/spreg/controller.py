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

Buffers: the stream keeps one float64 workspace of min(|V|, BLOCK)
entries, the scratch of every blocked reduction (see ``distributions``),
and the pool keeps a float32 copy of the shifted logits it admits; a step
keeps no |V|-sized array for the next one. The conditional is widened to
float64 once (a float64 input is used as given), and that one array is
both the entropy pass's input and a passthrough directive's logits. The
entropy pass leaves the step's shifted logits, z - max(z), and their
logsumexp. The pool admits the shifted logits as they are, since its
reference normalizes their mean. Only an intervened step subtracts the
logsumexp, in place, and writes its directive into those log-probs,
which the pool never admits on such a step. It builds its reference
log-probs in the widened copy of a narrower input, which it no longer
needs (a float64 input is the host's, so that step allocates them), and
uses the spent reference log-probs as the output entropy's shifted
buffer. So it allocates at most one |V| array more than a passthrough
step, a guided repair's token weights. The external reference is read in
the host's dtype. No step writes into an array the host passed, and a
directive's logits are never written after the step returns them.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .detector import Decision, DecisionKind, DetectorConfig, Phase, SpikeDetector
from .distributions import (
    BLOCK,
    as_logits,
    check_vocab_size,
    entropy_and_logprobs,
    log_softmax,
    normalized_entropy,
    shannon_entropy,
)
from .errors import ConfigError, ProtocolError, check_fields, checked_int, read_fields
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
        check_fields(self)
        check_vocab_size(self.vocab_size)


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
        return read_fields(cls, d, "event")


@dataclass(frozen=True)
class StreamSummary:
    total_steps: int
    spikes: int
    repair_steps: int
    aggressive_recoveries: int
    mean_entropy: float | None  # None before the first step


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
        self._work = np.empty(min(config.vocab_size, BLOCK))
        self._recent: deque[int] = deque(maxlen=config.repair.recent_window)
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

        ``token_id``/``token_text`` describe the token sampled at t-1; a
        token reported with step 0, or one notify_sampled already reported,
        raises ProtocolError.
        ``ref_logits``, when given, is an externally computed reference
        distribution that takes precedence over the pool synthesis.
        """
        t = checked_int(t, "t")
        if t != self._next_t:
            raise ProtocolError(f"expected step {self._next_t}, got {t}")
        token_id = _checked_token(token_id, token_text)
        inline_token = token_id is not None or bool(token_text)
        if inline_token and not self._awaiting_sample:
            if t == 0:
                raise ProtocolError("step 0: no token can be reported before the first step")
            raise ProtocolError(f"step {t}: sampled token was already notified")
        vocab = self.config.vocab_size
        logits = as_logits(cond_logits, vocab)
        cond = np.asarray(logits, dtype=np.float64)
        ref = None if ref_logits is None else as_logits(ref_logits, vocab)
        entropy, shifted, lse = entropy_and_logprobs(cond, work=self._work)

        # Every input is valid; stream state changes only from here on.
        if inline_token:
            self._awaiting_sample = False
            self._ingest_token(token_id, token_text or "")
        self._next_t += 1

        mu, sigma = self._window.stats()
        n = self.config.detector.n_grad
        prior = self._window.tail(n - 1)
        gradient = entropy_gradient([*prior, entropy]) if len(prior) == n - 1 else None
        step_type = self._tracker.classify()

        phase, decision = self._detector.advance(t, entropy, mu, sigma, gradient)
        if decision.kind is DecisionKind.NO_ACTION:
            directive = Directive(logits=cond)
            lam, source, modified_entropy = None, ReferenceSource.NA, None
            if mu is not None and entropy < mu:
                self._pool.record(shifted)
        else:
            # A narrower input was widened into a new array, which this step owns.
            spare = None if cond.dtype == logits.dtype else cond
            directive, lam, source, modified_entropy = self._repair(
                shifted, lse, ref, entropy, mu, step_type, decision, spare
            )
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

    def _repair(
        self,
        shifted: np.ndarray,
        lse: float,
        ref: np.ndarray | None,
        entropy: float,
        mu: float | None,
        step_type: StepType,
        decision: Decision,
        spare: np.ndarray | None,
    ) -> tuple[Directive, float | None, ReferenceSource, float | None]:
        """The directive, guidance scale, reference source and modified entropy
        of an intervened step.

        The directive is written into ``shifted``, made the conditional
        log-probs in place. The reference log-probs go into ``spare`` (a new
        array when it is None) and are then the output entropy's shifted
        buffer.
        """
        cond_logprobs = np.subtract(shifted, lse, out=shifted)
        params = self.config.repair
        if ref is not None:
            ref, source = log_softmax(ref, out=spare, work=self._work), ReferenceSource.EXTERNAL
        else:
            source = ReferenceSource.POOL if len(self._pool) > 0 else ReferenceSource.UNIFORM
            ref = self._pool.synthesize(out=spare, work=self._work)
        if decision.kind is DecisionKind.AGGRESSIVE_RECOVER:
            lam = params.lambda_max
            out, temperature = aggressive_recover(
                cond_logprobs, ref, self._recent, params, out=cond_logprobs
            )
            directive = Directive(
                logits=out, mode=Mode.AGGRESSIVE, temperature_override=temperature
            )
        else:
            lam = adaptive_scale(
                entropy, mu, step_type, decision.repair_index, self.config.guidance, params
            )
            h_norm = normalized_entropy(entropy, self.config.vocab_size)
            weights = token_weights(ref, h_norm, params, work=self._work)
            weights *= lam  # the extrapolation factor, scale * weights
            out = guided_logits(cond_logprobs, ref, weights, out=cond_logprobs)
            directive = Directive(logits=out, mode=Mode.REPAIR)
        modified_entropy = shannon_entropy(out, shifted=ref, work=self._work)
        return directive, lam, source, modified_entropy

    def finish(self) -> StreamSummary:
        """Cumulative tallies; equal to a recount over the emitted events."""
        steps = self._next_t
        return StreamSummary(
            total_steps=steps,
            spikes=self._detector.repair_count,
            repair_steps=self._modes[Mode.REPAIR],
            aggressive_recoveries=self._modes[Mode.AGGRESSIVE],
            mean_entropy=self._entropy_sum / steps if steps else None,
        )
