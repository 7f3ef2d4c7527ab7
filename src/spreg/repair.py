"""Distribution rectification: reference synthesis and guided logits.

The guidance family here extrapolates the conditional distribution away
from a reference distribution in log-softmax space,

    guided = ref + scale * weights * (cond - ref)

with a per-token weight vector derived from the standardized reference
log-probs. The reference comes from an externally supplied distribution
when available, otherwise it is synthesized from a pool of low-entropy
historical steps, falling back to uniform. The pool stores each step's
logits minus their max as a float32 row, with values below float32's
range clipped to ``-finfo(float32).max`` (probability 0 either way), and
synthesizes the reference in float64; all arithmetic here is float64.

Precondition: the conditional and reference vectors passed in here are
finite, normalized float64 log-probs (log_softmax output) of the stream's
vocabulary size, and the scalars are those of a validated step and config.
The controller validates each step once, so nothing here re-checks them.

Finiteness rule: a step whose logits could carry the extrapolation past
float64 is rejected before it commits. ``as_logits`` accepts a logit range
(max - min) of at most ``MAX_LOGIT_RANGE`` (1e100), and ``RepairParams``
caps ``lambda_max``, ``eta`` and ``rho`` at ``MAX_GAIN`` (1e60). The
log-probs then lie within about 1e100 of 0, a weight's size is at most
1 + eta * sqrt(|V|), and every guided or penalized logit stays below about
1e230 in size, so the directive and its modified entropy are finite for
any vocabulary that fits in memory; they can still exceed float32's
range, so the wire saturates them there (``trace_io``). A rejected step
leaves the stream as it was, and the host may retry the same t.

Aggressive recovery escalates: guidance at the capped scale, a repetition
penalty over recently sampled token ids, and a sharp sampling-temperature
override returned to the host.

Each computation is one public function. Its float64 buffers are optional
keyword-only arguments (``out``, ``work``); a buffer that is not given is
allocated, and no function writes into its other arguments. A ``work``
buffer needs only min(|V|, BLOCK) entries, as reductions over the
vocabulary run block by block (see ``distributions``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .distributions import EPSILON, FLOAT32_MAX, _blocks, log_softmax
from .errors import ConfigError, check_fields
from .plan_tracker import GuidanceTable, StepType

__all__ = [
    "RepairParams",
    "ReferencePool",
    "adaptive_scale",
    "token_weights",
    "guided_logits",
    "repetition_penalty",
    "aggressive_recover",
]

# Upper bound on lambda_max, eta and rho; see the finiteness rule above.
MAX_GAIN = 1e60


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
        check_fields(self)
        checks = [
            (self.beta >= 0, "beta must be >= 0"),
            (0 <= self.eta <= MAX_GAIN, f"eta must be in [0, {MAX_GAIN:g}]"),
            (1 <= self.lambda_max <= MAX_GAIN, f"lambda_max must be in [1, {MAX_GAIN:g}]"),
            (1 < self.rho <= MAX_GAIN, f"rho must be in (1, {MAX_GAIN:g}]"),
            (0 < self.t_recover <= 1, "t_recover must be in (0, 1]"),
            (self.recent_window >= 1, "recent_window must be >= 1"),
            (self.pool_capacity >= 1, "pool_capacity must be >= 1"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(f"{msg} (got {self})")


class ReferencePool:
    """Bounded store of low-entropy historical distributions.

    The controller admits unintervened steps whose entropy is below the
    window mean, each as its logits minus their max: a row is a
    distribution's log-probs up to a constant. The oldest row is evicted
    at capacity. One pool belongs to one stream.

    Rows are stored as float32, which halves the pool's memory; the
    reference is synthesized from them in float64. A value below
    float32's range is stored as ``-finfo(float32).max``: in a row whose
    max is 0 its probability is already 0, and the row stays finite.
    """

    def __init__(self, vocab_size: int, capacity: int = 32):
        self.vocab_size = vocab_size
        self._entries: deque[np.ndarray] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, logits: np.ndarray) -> bool:
        """Store a float32 copy of the logit row; True, as every offer is stored."""
        # Cast, then clip the float32 row in place, and only if a value
        # overflowed to -inf: clipping the float64 input into a float32
        # ``out`` would take a |V|-sized cast buffer, and a float32 min
        # costs a quarter of the clip.
        with np.errstate(over="ignore"):
            row = logits.astype(np.float32)
        if row.min() < -FLOAT32_MAX:
            np.maximum(row, -FLOAT32_MAX, out=row)
        self._entries.append(row)
        return True

    def synthesize(self, *, out=None, work=None) -> np.ndarray:
        """Aggregate stored distributions into one normalized log-prob vector.

        Normalizes the mean of the rows, the normalized geometric mean of
        the distributions: a row's constant only shifts the mean, which
        log_softmax ignores. An empty pool falls back to uniform.

        The oldest row is widened into the float64 ``out`` and the later
        rows are added to it in insertion order: that is the same sequence
        of float64 additions as numpy's axis-0 mean of the widened rows
        stacked, so the result is bit-identical to it without
        materialising a capacity x |V| array. ``out`` is allocated if it
        is not given; ``work`` is the normalization's scratch buffer and
        is overwritten.
        """
        out = np.empty(self.vocab_size) if out is None else out
        if not self._entries:
            out.fill(-math.log(self.vocab_size))
            return out
        rows = iter(self._entries)
        np.copyto(out, next(rows))
        for row in rows:
            out += row
        out /= len(self._entries)
        return log_softmax(out, out=out, work=work)


def adaptive_scale(
    entropy: float,
    mu: float,
    step: StepType,
    repair_index: int,
    table: GuidanceTable,
    params: RepairParams,
) -> float:
    """Guidance scale clamped into [1, lambda_max].

    lambda_base(step) * (1 + beta * (H - mu) / (mu + EPSILON)), divided by
    (1 + repair_index) so successive repairs decay. The lower clamp keeps
    the guidance extrapolating rather than interpolating when
    forced-repair continuation steps see entropy back below the mean.
    """
    excess = 1.0 + params.beta * (entropy - mu) / (mu + EPSILON)
    raw = table.lambda_base[step] * excess / (1 + repair_index)
    return min(max(raw, 1.0), params.lambda_max)


def token_weights(
    reference, normalized_entropy: float, params: RepairParams, *, work=None
) -> np.ndarray:
    """Per-token guidance weights from the standardized reference vector.

    w(v) = 1 + eta * H_norm * (ref(v) - mean) / (std + EPSILON); the
    weights average to exactly 1, and a constant reference yields all ones.
    The result is a new array; ``work`` is overwritten.
    """
    ref = np.asarray(reference, dtype=np.float64)
    out = np.empty_like(ref)
    np.subtract(ref, ref.mean(), out=out)
    # Second centering pass removes the float residue of the first, which
    # the small (sigma + EPSILON) divisor would otherwise amplify.
    out -= out.mean()
    squares = 0.0
    for _, block, square in _blocks(out, work):
        squares += float(np.square(block, out=square).sum())
    sigma_ref = math.sqrt(squares / out.size)
    out *= params.eta * normalized_entropy
    out /= sigma_ref + EPSILON
    out += 1.0
    return out


def guided_logits(
    cond_logprobs: np.ndarray, ref_logprobs: np.ndarray, factor, *, out=None
) -> np.ndarray:
    """Weighted extrapolation ref + factor * (cond - ref), written into ``out``.

    ``factor`` is the guidance scale, or the scale times the token weights.
    Both inputs must be finite, normalized log-prob arrays (log_softmax
    output) of one shape; they are not re-checked or renormalized here.
    The result is a valid (unnormalized) logit vector for the host sampler.
    A factor of 1 reproduces the conditional; 0 reproduces the reference.
    ``out`` may be ``cond_logprobs`` itself.
    """
    out = np.empty(np.shape(cond_logprobs)) if out is None else out
    np.subtract(cond_logprobs, ref_logprobs, out=out)
    out *= factor
    out += ref_logprobs
    return out


def repetition_penalty(logits, recent_ids, rho: float, *, out=None) -> np.ndarray:
    """Push recently generated tokens away from re-selection.

    Positive logits of recent tokens are divided by rho, negative ones
    multiplied; zeros and tokens outside the recent set are untouched, so
    signs are always preserved. The result is written into the float64
    ``out``, which may be ``logits`` itself.
    """
    if out is None:
        out = np.array(logits, dtype=np.float64)
    elif out is not logits:
        np.copyto(out, logits)
    ids = [i for i in set(recent_ids) if 0 <= i < out.size]
    if ids:
        idx = np.fromiter(ids, dtype=np.intp)
        vals = out[idx]
        out[idx] = np.where(vals > 0, vals / rho, np.where(vals < 0, vals * rho, vals))
    return out


def aggressive_recover(
    cond_logprobs,
    ref_logprobs,
    recent_ids,
    params: RepairParams,
    *,
    out=None,
) -> tuple[np.ndarray, float]:
    """Escalated intervention for persistent high-entropy states.

    Applies guidance at the full lambda_max, penalizes the recent token
    set to break loops, and returns the sharp sampling temperature the
    host should use for this step. The logits are written into ``out``.
    """
    out = guided_logits(cond_logprobs, ref_logprobs, params.lambda_max, out=out)
    return repetition_penalty(out, recent_ids, params.rho, out=out), params.t_recover
