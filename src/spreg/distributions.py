"""Numeric primitives over dense token distributions.

``as_logits`` is the one validator: it widens a vector to 1-D float64 and
rejects anything the other functions cannot take. They trust their input
and compute in float64, regardless of the input dtype. Entropy is in nats.

logsumexp is evaluated as log1p over the non-argmax exponentials, which
keeps full relative precision even for sharply peaked distributions, and
entries whose probability underflows to zero contribute exactly zero to
the entropy (the p*log p limit convention).

Each computation is one public function. Its float64 buffers are optional
keyword-only arguments (``out``, ``shifted``, ``work``); a buffer that is not
given is allocated, and no function writes into its other arguments. The
controller passes buffers its step owns.
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

# The widest logit range (max - min) as_logits accepts. Together with the
# caps on RepairParams it keeps every repair quantity finite; see ``repair``.
MAX_LOGIT_RANGE = 1e100


def as_logits(values, vocab_size: int | None = None) -> np.ndarray:
    """Validate and widen a logit vector to a 1-D float64 array.

    Raises ValueError for wrong dimensionality, fewer than two vocabulary
    entries, a vocab_size mismatch, non-finite entries, or a range
    (max - min) above MAX_LOGIT_RANGE. A float64 array is returned as is,
    not copied.
    """
    z = np.asarray(values, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"logits must be 1-D, got shape {z.shape}")
    if z.size < 2:
        raise ValueError(f"vocabulary must have at least 2 entries, got {z.size}")
    if vocab_size is not None and z.size != vocab_size:
        raise ValueError(f"expected {vocab_size} logits, got {z.size}")
    # NaN, +-inf and an overflowing range all fail this comparison.
    if not float(z.max()) - float(z.min()) <= MAX_LOGIT_RANGE:
        raise ValueError(f"logits must be finite, with a range of at most {MAX_LOGIT_RANGE:g}")
    return z


def _peak_parts(z: np.ndarray, shifted: np.ndarray, work: np.ndarray) -> float:
    """Write the max-shifted logits into ``shifted`` and their exponentials
    (argmax zeroed) into ``work``; return the rest mass, the sum of ``work``.

    The argmax exponential is exactly 1 and is removed so logsumexp can be
    taken as log1p(rest) at full relative precision. ``shifted`` may be
    ``z`` itself; ``work`` must be a third array.
    """
    i = int(np.argmax(z))
    np.subtract(z, z[i], out=shifted)
    np.exp(shifted, out=work)
    work[i] = 0.0
    return float(work.sum())


def _entropy_into(z: np.ndarray, shifted: np.ndarray, work: np.ndarray) -> tuple[float, float]:
    """Entropy of softmax(z) and logsumexp(z) - max(z), using two float64 buffers.

    ``shifted`` is left holding z - max(z); both buffers are overwritten.
    """
    rest = _peak_parts(z, shifted, work)
    lse = math.log1p(rest)
    # H = lse - E[shifted]; the argmax term of the dot is zero by shift.
    return lse - float(np.dot(work, shifted)) / (1.0 + rest), lse


def log_softmax(logits, *, out=None, work=None) -> np.ndarray:
    """Normalized log-probabilities: z[v] - logsumexp(z).

    Written into ``out`` (which may be the float64 input itself); ``work``
    is overwritten.
    """
    z = np.asarray(logits, dtype=np.float64)
    out = np.empty_like(z) if out is None else out
    rest = _peak_parts(z, out, np.empty_like(z) if work is None else work)
    out -= math.log1p(rest)
    return out


def shannon_entropy(logits, *, shifted=None, work=None) -> float:
    """Entropy of softmax(logits), in nats; both buffers are overwritten."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = np.empty_like(z) if shifted is None else shifted
    return _entropy_into(z, shifted, np.empty_like(z) if work is None else work)[0]


def entropy_and_logprobs(logits) -> tuple[float, np.ndarray]:
    """Entropy plus the normalized log-probabilities, sharing one pass."""
    z = np.asarray(logits, dtype=np.float64)
    logprobs = np.empty_like(z)
    h, lse = _entropy_into(z, logprobs, np.empty_like(z))
    logprobs -= lse
    return h, logprobs


def normalized_entropy(entropy: float, vocab_size: int) -> float:
    """Entropy divided by its maximum log(vocab_size); lands in [0, 1].

    The ratio is clamped at 1: a uniform distribution's computed entropy
    can exceed log(vocab_size) by one ulp.
    """
    return min(entropy / math.log(vocab_size), 1.0)
