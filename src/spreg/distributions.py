"""Numeric primitives over dense token distributions.

All functions take a 1-D array of logits (unnormalized log scores over a
vocabulary) and compute in float64, regardless of the input dtype. Entropy
is reported in nats by default; pass ``base`` to rescale.

logsumexp is evaluated as log1p over the non-argmax exponentials, which
keeps full relative precision even for sharply peaked distributions, and
entries whose probability underflows to zero contribute exactly zero to
the entropy (the p*log p limit convention).

Every function here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_logits",
    "log_softmax",
    "softmax",
    "shannon_entropy",
    "entropy_and_logprobs",
    "normalized_entropy",
    "apply_temperature",
]


def as_logits(values, vocab_size: int | None = None) -> np.ndarray:
    """Validate and widen a logit vector to a 1-D float64 array.

    Raises ValueError for non-finite entries, wrong dimensionality,
    fewer than two vocabulary entries, or a vocab_size mismatch.
    """
    z = np.asarray(values, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"logits must be 1-D, got shape {z.shape}")
    if z.size < 2:
        raise ValueError(f"vocabulary must have at least 2 entries, got {z.size}")
    if vocab_size is not None and z.size != vocab_size:
        raise ValueError(f"expected {vocab_size} logits, got {z.size}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits contain non-finite values")
    return z


def _peak_parts(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Max-shifted logits, their exponentials (argmax zeroed), and the rest mass.

    The argmax exponential is exactly 1 and is removed so logsumexp can be
    taken as log1p(rest) at full relative precision.
    """
    i = int(np.argmax(z))
    shifted = z - z[i]
    e = np.exp(shifted)
    e[i] = 0.0
    return shifted, e, float(e.sum())


def log_softmax(logits) -> np.ndarray:
    """Normalized log-probabilities: z[v] - logsumexp(z)."""
    shifted, _, rest = _peak_parts(as_logits(logits))
    return shifted - math.log1p(rest)


def softmax(logits) -> np.ndarray:
    z = as_logits(logits)
    e = np.exp(z - z.max())
    return e / e.sum()


def shannon_entropy(logits, base: float | None = None) -> float:
    """Entropy of softmax(logits), in nats unless ``base`` is given."""
    h, _ = _entropy_parts(as_logits(logits))
    if base is not None:
        h /= math.log(base)
    return h


def entropy_and_logprobs(logits) -> tuple[float, np.ndarray]:
    """Entropy plus the normalized log-probabilities, sharing one pass."""
    z = as_logits(logits)
    h, (shifted, lse) = _entropy_parts(z)
    return h, shifted - lse


def _entropy_parts(z: np.ndarray) -> tuple[float, tuple[np.ndarray, float]]:
    shifted, e, rest = _peak_parts(z)
    lse = math.log1p(rest)
    # H = lse - E[shifted]; the argmax term of the dot is zero by shift.
    h = lse - float(np.dot(e, shifted)) / (1.0 + rest)
    return h, (shifted, lse)


def normalized_entropy(entropy: float, vocab_size: int) -> float:
    """Entropy divided by its maximum log(vocab_size); lands in [0, 1].

    The ratio is clamped at 1: a uniform distribution's computed entropy
    can exceed log(vocab_size) by one ulp.
    """
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
    if entropy < 0.0 or not math.isfinite(entropy):
        raise ValueError(f"entropy must be finite and non-negative, got {entropy}")
    return min(entropy / math.log(vocab_size), 1.0)


def apply_temperature(logits, temperature: float) -> np.ndarray:
    """Scale logits by 1/T. T < 1 sharpens (lowers entropy), T > 1 flattens."""
    if not (temperature > 0.0) or not math.isfinite(temperature):
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    return as_logits(logits) / temperature
