"""Numeric primitives over dense token distributions.

``as_logits`` is the one validator: it widens a vector to 1-D float64 and
rejects anything the other functions cannot take. They trust their input
and compute in float64, regardless of the input dtype. Entropy is in nats.

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
    "EPSILON",
    "as_logits",
    "log_softmax",
    "shannon_entropy",
    "entropy_and_logprobs",
    "normalized_entropy",
]

# Added to every divisor that can be 0 (a flat window's sigma, a zero
# window mean, a constant reference's spread) in the detector and repair rules.
EPSILON = 1e-6


def as_logits(values, vocab_size: int | None = None) -> np.ndarray:
    """Validate and widen a logit vector to a 1-D float64 array.

    Raises ValueError for wrong dimensionality, fewer than two vocabulary
    entries, a vocab_size mismatch, non-finite entries, or a range
    (max - min) too wide for float64, whose log-probs would overflow.
    """
    z = np.asarray(values, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"logits must be 1-D, got shape {z.shape}")
    if z.size < 2:
        raise ValueError(f"vocabulary must have at least 2 entries, got {z.size}")
    if vocab_size is not None and z.size != vocab_size:
        raise ValueError(f"expected {vocab_size} logits, got {z.size}")
    # NaN, +-inf and an overflowing range all make this difference non-finite.
    if not math.isfinite(float(z.max()) - float(z.min())):
        raise ValueError("logits must be finite, with a range that fits in float64")
    return z


def _peak_parts(logits) -> tuple[np.ndarray, np.ndarray, float]:
    """Max-shifted logits, their exponentials (argmax zeroed), and the rest mass.

    The argmax exponential is exactly 1 and is removed so logsumexp can be
    taken as log1p(rest) at full relative precision. Both arrays are fresh,
    so callers may modify them in place.
    """
    z = np.asarray(logits, dtype=np.float64)
    i = int(np.argmax(z))
    shifted = z - z[i]
    e = np.exp(shifted)
    e[i] = 0.0
    return shifted, e, float(e.sum())


def log_softmax(logits) -> np.ndarray:
    """Normalized log-probabilities: z[v] - logsumexp(z)."""
    shifted, _, rest = _peak_parts(logits)
    shifted -= math.log1p(rest)
    return shifted


def shannon_entropy(logits) -> float:
    """Entropy of softmax(logits), in nats."""
    h, _ = _entropy_parts(logits)
    return h


def entropy_and_logprobs(logits) -> tuple[float, np.ndarray]:
    """Entropy plus the normalized log-probabilities, sharing one pass."""
    h, (shifted, lse) = _entropy_parts(logits)
    shifted -= lse
    return h, shifted


def _entropy_parts(logits) -> tuple[float, tuple[np.ndarray, float]]:
    shifted, e, rest = _peak_parts(logits)
    lse = math.log1p(rest)
    # H = lse - E[shifted]; the argmax term of the dot is zero by shift.
    h = lse - float(np.dot(e, shifted)) / (1.0 + rest)
    return h, (shifted, lse)


def normalized_entropy(entropy: float, vocab_size: int) -> float:
    """Entropy divided by its maximum log(vocab_size); lands in [0, 1].

    The ratio is clamped at 1: a uniform distribution's computed entropy
    can exceed log(vocab_size) by one ulp.
    """
    return min(entropy / math.log(vocab_size), 1.0)
