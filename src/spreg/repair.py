"""Distribution rectification: reference synthesis and guided logits.

The guidance family here extrapolates the conditional distribution away
from a reference distribution in log-softmax space,

    guided = ref + scale * weights * (cond - ref)

with a per-token weight vector derived from the standardized reference
log-probs. The reference comes from an externally supplied distribution
when available, otherwise it is synthesized from a pool of low-entropy
historical distributions, falling back to uniform.

Precondition: the conditional and reference vectors passed in here are
finite, normalized float64 log-probs (log_softmax output) of the stream's
vocabulary size, and the scalars are those of a validated step and config.
The controller validates each step once, so nothing here re-checks them.

Aggressive recovery escalates: guidance at the capped scale, a repetition
penalty over recently sampled token ids, and a sharp sampling-temperature
override returned to the host.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .distributions import EPSILON, log_softmax
from .errors import ConfigError
from .plan_tracker import GuidanceTable, StepType

__all__ = [
    "RepairParams",
    "ReferencePool",
    "adaptive_scale",
    "adaptive_scale_raw",
    "token_weights",
    "guided_logits",
    "repetition_penalty",
    "aggressive_recover",
]

@dataclass(frozen=True)
class RepairParams:
    beta: float = 0.5
    eta: float = 0.1
    lambda_max: float = 3.0
    rho: float = 1.3
    t_recover: float = 0.3
    recent_window: int = 64
    pool_capacity: int = 32

    def __post_init__(self):
        checks = [
            (self.beta >= 0, "beta must be >= 0"),
            (self.eta >= 0, "eta must be >= 0"),
            (self.lambda_max >= 1, "lambda_max must be >= 1"),
            (self.rho > 1, "rho must be > 1"),
            (0 < self.t_recover <= 1, "t_recover must be in (0, 1]"),
            (self.recent_window >= 1, "recent_window must be >= 1"),
            (self.pool_capacity >= 1, "pool_capacity must be >= 1"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(f"{msg} (got {self})")


class ReferencePool:
    """Bounded store of low-entropy historical log-prob distributions.

    The controller decides what is admitted (unintervened steps whose
    entropy is below the window mean); the oldest entry is evicted at
    capacity. One pool belongs to one stream.
    """

    def __init__(self, vocab_size: int, capacity: int = 32):
        self.vocab_size = vocab_size
        self._entries: deque[np.ndarray] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, logprobs: np.ndarray) -> bool:
        """Store the distribution as given (not copied); True, as every offer is stored."""
        self._entries.append(logprobs)
        return True

    def synthesize(self) -> np.ndarray:
        """Aggregate stored distributions into one normalized log-prob vector.

        Averages the log-probabilities (the normalized geometric mean of
        the distributions); an empty pool falls back to uniform.
        """
        if not self._entries:
            return np.full(self.vocab_size, -math.log(self.vocab_size))
        return log_softmax(np.stack(self._entries).mean(axis=0))


def adaptive_scale_raw(
    entropy: float,
    mu: float,
    step: StepType,
    repair_index: int,
    table: GuidanceTable,
    params: RepairParams,
) -> float:
    """Unclamped guidance scale.

    base(step) * (1 + beta * (H - mu) / (mu + EPSILON)) * gamma(step),
    divided by (1 + repair_index) so successive repairs decay.
    """
    lambda_base, gamma = table.params(step)
    excess = 1.0 + params.beta * (entropy - mu) / (mu + EPSILON)
    return lambda_base * excess * gamma / (1 + repair_index)


def adaptive_scale(
    entropy: float,
    mu: float,
    step: StepType,
    repair_index: int,
    table: GuidanceTable,
    params: RepairParams,
) -> float:
    """Guidance scale clamped into [1, lambda_max].

    The lower clamp keeps the guidance extrapolating rather than
    interpolating when forced-repair continuation steps see entropy back
    below the mean.
    """
    raw = adaptive_scale_raw(entropy, mu, step, repair_index, table, params)
    return min(max(raw, 1.0), params.lambda_max)


def token_weights(reference, normalized_entropy: float, params: RepairParams) -> np.ndarray:
    """Per-token guidance weights from the standardized reference vector.

    w(v) = 1 + eta * H_norm * (ref(v) - mean) / (std + EPSILON); the
    weights average to exactly 1, and a constant reference yields all ones.
    """
    ref = np.asarray(reference, dtype=np.float64)
    dev = ref - ref.mean()
    # Second centering pass removes the float residue of the first, which
    # the small (sigma + EPSILON) divisor would otherwise amplify.
    dev -= dev.mean()
    sigma_ref = float(np.sqrt(np.mean(dev**2)))
    return 1.0 + params.eta * normalized_entropy * dev / (sigma_ref + EPSILON)


def guided_logits(
    cond_logprobs: np.ndarray, ref_logprobs: np.ndarray, scale: float, weights=1.0
) -> np.ndarray:
    """Weighted extrapolation between conditional and reference.

    Both inputs must be finite, normalized log-prob arrays (log_softmax
    output) of one shape; they are not re-checked or renormalized here.
    The result is a valid (unnormalized) logit vector for the host sampler.
    scale=1 with unit weights reproduces the conditional; scale=0
    reproduces the reference.
    """
    return ref_logprobs + scale * weights * (cond_logprobs - ref_logprobs)


def repetition_penalty(logits, recent_ids, rho: float) -> np.ndarray:
    """Push recently generated tokens away from re-selection.

    Positive logits of recent tokens are divided by rho, negative ones
    multiplied; zeros and tokens outside the recent set are untouched, so
    signs are always preserved.
    """
    z = np.array(logits, dtype=np.float64)
    ids = [i for i in set(recent_ids) if 0 <= i < z.size]
    if not ids:
        return z
    idx = np.fromiter(ids, dtype=np.intp)
    vals = z[idx]
    z[idx] = np.where(vals > 0, vals / rho, np.where(vals < 0, vals * rho, vals))
    return z


def aggressive_recover(
    cond_logprobs,
    ref_logprobs,
    recent_ids,
    params: RepairParams,
) -> tuple[np.ndarray, float]:
    """Escalated intervention for persistent high-entropy states.

    Applies guidance at the full lambda_max, penalizes the recent token
    set to break loops, and returns the sharp sampling temperature the
    host should use for this step.
    """
    guided = guided_logits(cond_logprobs, ref_logprobs, params.lambda_max)
    return repetition_penalty(guided, recent_ids, params.rho), params.t_recover
