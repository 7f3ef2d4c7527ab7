import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spreg.distributions import (
    BLOCK,
    as_logits,
    entropy_and_logprobs,
    log_softmax,
    normalized_entropy,
    shannon_entropy,
)

from _oracles import naive_entropy, naive_log_softmax

finite_logits = arrays(
    np.float64,
    shape=st.integers(min_value=2, max_value=200),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
)


def test_log_softmax_symmetry():
    out = log_softmax([0.0, 0.0])
    assert out == pytest.approx([-math.log(2), -math.log(2)], abs=1e-12)


def test_log_softmax_shift_invariance_constant_vector():
    for c in (-7.5, 0.0, 3.25):
        out = log_softmax([c, c, c, c])
        assert out == pytest.approx([-math.log(4)] * 4, abs=1e-12)


def test_log_softmax_two_point():
    expected = 2.0 - math.log(math.exp(2.0) + 1.0)
    assert log_softmax([2.0, 0.0]) == pytest.approx([expected, expected - 2.0], abs=1e-9)
    assert log_softmax([2.0, 0.0]) == pytest.approx([-0.126928, -2.126928], abs=1e-6)


def test_as_logits_rejects_bad_input():
    for bad in ([1.0, np.nan], [1.0, np.inf], [1.0, -np.inf], [1.0], [[1.0, 2.0], [3.0, 4.0]]):
        with pytest.raises(ValueError):
            as_logits(bad)
    with pytest.raises(ValueError):
        as_logits([1.0, 2.0], vocab_size=3)
    # Finite, but the range overflows: the log-probs and entropy would be NaN.
    with pytest.raises(ValueError):
        as_logits([1e308, -1e308, 0.0])
    # Finite and representable, but wider than the repair can extrapolate.
    with pytest.raises(ValueError):
        as_logits([1e100, -1e100])
    assert as_logits([5e99, -5e99]).dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
def test_as_logits_checks_narrow_floats_as_given(dtype):
    for bad in ([1.0, np.nan], [1.0, np.inf], [-np.inf, 1.0], [np.inf, -np.inf]):
        z = np.array(bad, dtype=dtype)
        with pytest.raises(ValueError) as narrow:
            as_logits(z)
        with pytest.raises(ValueError) as wide:
            as_logits(z.astype(np.float64))
        assert str(narrow.value) == str(wide.value)
    # No float16 or float32 spread exceeds MAX_LOGIT_RANGE, and one that
    # overflows the input's own dtype is still accepted: the range is taken
    # in float64. An accepted float array comes back as given, uncopied.
    top = np.finfo(dtype).max
    rng = np.random.default_rng(0)
    for z in (
        np.array([top, -top, 0.0], dtype=dtype),
        np.array([-0.0, np.finfo(dtype).smallest_subnormal], dtype=dtype),
        rng.standard_normal(1000).astype(dtype),
    ):
        before = z.tobytes()
        assert as_logits(z, vocab_size=z.size) is z
        assert z.dtype == dtype and z.tobytes() == before
    # Any other input comes back as a new float64 array.
    for given in ([1, -2, 0], (1.5, 2.5), np.array([3, 4], dtype=np.int32)):
        out = as_logits(given)
        assert out.dtype == np.float64 and out is not given
        assert np.array_equal(out, np.array(given, dtype=np.float64))


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
def test_narrow_floats_compute_as_their_float64_widening(dtype):
    # Each function reads the narrow array itself; the result is bit-equal
    # to the one for the widened copy.
    info = np.finfo(dtype)
    rng = np.random.default_rng(1)
    vectors = [
        np.array([info.max, -info.max, 0.0], dtype=dtype),
        np.array([-0.0, info.smallest_subnormal, -info.smallest_subnormal], dtype=dtype),
        *((rng.standard_normal(n) * rng.uniform(0.1, 20)).astype(dtype) for n in (2, 17, 4096)),
    ]
    for z in vectors:
        wide = z.astype(np.float64)
        h, shifted, lse = entropy_and_logprobs(z)
        h_wide, shifted_wide, lse_wide = entropy_and_logprobs(wide)
        assert shifted.dtype == np.float64 and shifted.tobytes() == shifted_wide.tobytes()
        assert math.isfinite(h) and h == h_wide and lse == lse_wide
        assert (shifted - lse).tobytes() == log_softmax(wide).tobytes()
        assert shannon_entropy(z) == shannon_entropy(wide)
        assert log_softmax(z).tobytes() == log_softmax(wide).tobytes()


def test_as_logits_returns_a_float64_array_uncopied():
    z = np.array([1.0, -2.0, 0.5])
    assert as_logits(z) is z


@given(finite_logits)
@settings(max_examples=200)
def test_log_softmax_idempotent(z):
    once = log_softmax(z)
    assert np.allclose(log_softmax(once), once, atol=1e-9)


@given(finite_logits)
@settings(max_examples=200)
def test_log_softmax_normalizes(z):
    lp = log_softmax(z)
    assert math.isclose(np.exp(lp).sum(), 1.0, abs_tol=1e-9)
    assert np.all(lp <= 1e-12)


def test_entropy_one_hot_is_zero():
    assert shannon_entropy([40.0, -40.0, -40.0, -40.0]) == pytest.approx(0.0, abs=1e-9)


def test_entropy_uniform_is_log_vocab():
    assert shannon_entropy([1.0, 1.0, 1.0, 1.0]) == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_known_distribution():
    z = np.log([0.7, 0.1, 0.1, 0.1])
    assert shannon_entropy(z) == pytest.approx(0.940448, abs=1e-6)


@given(finite_logits)
@settings(max_examples=200)
def test_entropy_bounds(z):
    h = shannon_entropy(z)
    assert -1e-9 <= h <= math.log(z.size) + 1e-9


@given(finite_logits, st.floats(min_value=-100, max_value=100))
@settings(max_examples=200)
def test_entropy_shift_invariance(z, c):
    assert shannon_entropy(z + c) == pytest.approx(shannon_entropy(z), abs=1e-9)


@given(finite_logits)
@settings(max_examples=150)
def test_entropy_matches_naive_oracle(z):
    # The absolute floor covers near-deterministic vectors, where the
    # oracle's own two-pass normalization saturates first.
    h = shannon_entropy(z)
    ref = naive_entropy(z)
    assert abs(h - ref) <= 1e-9 * max(abs(ref), 1e-6)


def test_entropy_oracle_large_vocab():
    rng = np.random.default_rng(5)
    for size in (1024, 65536):
        z = rng.standard_normal(size) * 3.0
        h = shannon_entropy(z)
        ref = naive_entropy(z)
        assert abs(h - ref) <= 1e-9 * abs(ref)


def ragged(vocab: int) -> np.ndarray:
    """Logits whose argmax lies in the last block of a pass over ``vocab``."""
    z = np.random.default_rng(vocab).standard_normal(vocab) * 3.0
    z[-2] = z.max() + 4.0
    return z


@pytest.mark.parametrize("vocab", [BLOCK, 2 * BLOCK + 3])
def test_blocked_passes_meet_the_oracles_whatever_work_is_given(vocab):
    z = ragged(vocab)
    h = shannon_entropy(z)
    ref = naive_entropy(z)
    assert abs(h - ref) <= 1e-9 * abs(ref)
    lp = log_softmax(z)
    assert np.allclose(lp, naive_log_softmax(z), rtol=0, atol=1e-9)
    h_pass, shifted, lse = entropy_and_logprobs(z)
    assert h_pass == h and (shifted - lse).tobytes() == lp.tobytes()
    # A caller's work of one block or of |V| entries changes no bit.
    for work in (np.empty(min(vocab, BLOCK)), np.empty(vocab)):
        assert shannon_entropy(z, work=work) == h
        assert log_softmax(z, work=work).tobytes() == lp.tobytes()
        assert entropy_and_logprobs(z, work=work)[0] == h
    with pytest.raises(ValueError, match="work"):
        shannon_entropy(z, work=np.empty(min(vocab, BLOCK) - 1))


# The same vectors, each entropy as hex and each log_softmax as a digest.
_THREAD_PROBE = """
import hashlib
import numpy as np
from spreg.distributions import log_softmax, shannon_entropy
rng = np.random.default_rng(17)
for size in (32768, 131072):
    for _ in range(20):
        z = rng.standard_normal(size) * rng.uniform(0.25, 5.0)
        print(shannon_entropy(z).hex(), hashlib.sha256(log_softmax(z).tobytes()).hexdigest())
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    # A dot over the whole vector ran on two OpenBLAS threads and summed in
    # another order: 22 of these 40 entropies differed in their last bits.
    # On a 1-core host OpenBLAS runs one thread either way.
    def probe(threads: int) -> list[str]:
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")
        }
        env["OPENBLAS_NUM_THREADS"] = str(threads)
        done = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    one = probe(1)
    assert len(one) == 40
    assert probe(2) == one


def test_normalized_entropy():
    assert normalized_entropy(0.0, 16) == 0.0
    assert normalized_entropy(math.log(4), 4) == pytest.approx(1.0, abs=1e-12)
    assert normalized_entropy(0.940448, 4) == pytest.approx(0.678390, abs=1e-6)
    # The computed entropy of uniform logits at |V|=14 is one ulp above ln 14.
    assert normalized_entropy(shannon_entropy(np.zeros(14)), 14) <= 1.0


def test_sharp_temperature_lowers_entropy():
    z = np.array([2.0, 0.0])
    assert shannon_entropy(z / 0.3) < shannon_entropy(z)


@given(finite_logits, st.floats(min_value=0.05, max_value=0.99))
@settings(max_examples=100)
def test_temperature_below_one_never_raises_entropy(z, t):
    before = shannon_entropy(z)
    after = shannon_entropy(z / t)
    assert after <= before + 1e-9
