"""Numeric primitives over dense token distributions.

``as_logits`` is the one validator: it rejects anything the other
functions cannot take, and returns a float array as given. They trust
their input, read any float dtype, and compute in float64. Entropy is in
nats.

logsumexp is evaluated as log1p over the non-argmax exponentials, which
keeps full relative precision even for sharply peaked distributions, and
entries whose probability underflows to zero contribute exactly zero to
the entropy (the p*log p limit convention).

Every reduction over the vocabulary (the sums and the dot of the entropy
and logsumexp) runs over blocks of ``BLOCK`` entries and adds the blocks'
partial results in block order. So ``work`` needs only min(|V|, BLOCK)
entries, and the result depends on the input alone: not on the size of a
``work`` a caller passes, nor on the BLAS thread count, since OpenBLAS
takes a dot of at most 10000 entries on the calling thread. At |V| <=
BLOCK there is one block, and every result is bit-equal to the same
reduction over the whole vector.

Each computation is one public function. Its float64 buffers are optional
keyword-only arguments (``out``, ``shifted``, ``work``); a buffer that is not
given is allocated, and no function writes into its other arguments. The
controller passes buffers its step owns.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

__all__ = [
    "EPSILON",
    "as_logits",
    "check_vocab_size",
    "log_softmax",
    "shannon_entropy",
    "entropy_and_logprobs",
    "normalized_entropy",
]

# Added to every divisor that can be 0 (a flat window's sigma, a zero
# window mean, a constant reference's spread) in the detector and repair rules.
EPSILON = 1e-6

# Entries per block of a reduction over the vocabulary; see the module docstring.
BLOCK = 8192

# The widest logit range (max - min) as_logits accepts. Together with the
# caps on RepairParams it keeps every repair quantity finite; see ``repair``.
MAX_LOGIT_RANGE = 1e100


def as_logits(values, vocab_size: int | None = None) -> np.ndarray:
    """Validate a 1-D logit vector.

    Raises ValueError for wrong dimensionality, fewer than two vocabulary
    entries, a vocab_size mismatch, non-finite entries, or a range
    (max - min) above MAX_LOGIT_RANGE, taken in float64. A float array of
    any width is returned as given, not copied; any other input becomes a
    new float64 array.
    """
    is_float = isinstance(values, np.ndarray) and values.dtype.kind == "f"
    z = values if is_float else np.asarray(values, dtype=np.float64)
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


def check_vocab_size(vocab_size) -> None:
    """Raise ConfigError unless the integer ``vocab_size`` is >= 2 and numpy
    can allocate it as the |V|-sized float64 arrays of a step."""
    if vocab_size < 2:
        raise ConfigError(f"vocab_size must be >= 2, got {vocab_size}")
    try:
        np.empty(vocab_size)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's largest array
        raise ConfigError(f"vocab_size {vocab_size} cannot be allocated: {exc}") from None


def _blocks(a: np.ndarray, work: np.ndarray | None):
    """Each BLOCK-entry block of ``a`` in order: its start, the block, and an
    equally long view of the float64 ``work``.

    ``work`` must hold at least min(a.size, BLOCK) entries; it is allocated
    if it is None. A longer ``work`` changes nothing but which of its
    entries are overwritten.
    """
    size = min(a.size, BLOCK)
    if work is None:
        work = np.empty(size)
    elif work.size < size:
        raise ValueError(f"work must hold at least {size} entries, got {work.size}")
    for start in range(0, a.size, BLOCK):
        block = a[start : start + BLOCK]
        yield start, block, work[: block.size]


def _peak_blocks(z: np.ndarray, shifted: np.ndarray, work: np.ndarray | None):
    """Write z - max(z) into ``shifted``, then yield each block of it with
    its exponentials, which are written into ``work``, the argmax's zeroed.

    ``z`` may be of any float dtype; the subtraction is taken in float64,
    which is exactly the difference of the widened values. ``shifted`` may
    be ``z`` itself. The argmax exponential is exactly 1 and is removed so
    logsumexp can be taken as log1p(rest) at full relative precision,
    where rest is the sum of the others.
    """
    i = int(np.argmax(z))
    np.subtract(z, z[i], out=shifted, dtype=np.float64)
    for start, block, exp in _blocks(shifted, work):
        np.exp(block, out=exp)
        if start <= i < start + block.size:
            exp[i - start] = 0.0
        yield block, exp


def _entropy_into(z: np.ndarray, shifted: np.ndarray, work) -> tuple[float, float]:
    """Entropy of softmax(z) and logsumexp(z) - max(z).

    ``shifted`` is left holding z - max(z); ``work`` is overwritten.
    """
    rest = dot = 0.0
    for block, exp in _peak_blocks(z, shifted, work):
        rest += float(exp.sum())
        # The argmax term of the dot is zero by shift.
        dot += float(np.dot(exp, block))
    lse = math.log1p(rest)
    # H = lse - E[shifted].
    return lse - dot / (1.0 + rest), lse


def log_softmax(logits, *, out=None, work=None) -> np.ndarray:
    """Normalized log-probabilities: z[v] - logsumexp(z).

    Written into ``out`` (which may be the float64 input itself); ``work``
    is overwritten.
    """
    z = np.asarray(logits)
    out = np.empty(z.shape) if out is None else out
    rest = 0.0
    for _, exp in _peak_blocks(z, out, work):
        rest += float(exp.sum())
    out -= math.log1p(rest)
    return out


def shannon_entropy(logits, *, shifted=None, work=None) -> float:
    """Entropy of softmax(logits), in nats; both buffers are overwritten."""
    z = np.asarray(logits)
    shifted = np.empty(z.shape) if shifted is None else shifted
    return _entropy_into(z, shifted, work)[0]


def entropy_and_logprobs(logits, *, work=None) -> tuple[float, np.ndarray, float]:
    """Entropy plus the log-probabilities as ``shifted - lse``, sharing one pass.

    Returns (entropy, shifted, lse): ``shifted`` is a new array holding
    z - max(z), and ``lse`` is logsumexp(z) - max(z). The log-probs are
    left unnormalized, so a caller that does not use them skips that |V|
    pass; ``shifted - lse`` is bit-equal to ``log_softmax(logits)``.
    ``work`` is overwritten.
    """
    z = np.asarray(logits)
    shifted = np.empty(z.shape)
    h, lse = _entropy_into(z, shifted, work)
    return h, shifted, lse


def normalized_entropy(entropy: float, vocab_size: int) -> float:
    """Entropy divided by its maximum log(vocab_size); lands in [0, 1].

    The ratio is clamped at 1: a uniform distribution's computed entropy
    can exceed log(vocab_size) by one ulp.
    """
    return min(entropy / math.log(vocab_size), 1.0)
