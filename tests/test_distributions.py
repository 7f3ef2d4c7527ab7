import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spreg.distributions import (
    as_logits,
    entropy_and_logprobs,
    log_softmax,
    normalized_entropy,
    shannon_entropy,
)

from _oracles import naive_entropy

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
        h, lp = entropy_and_logprobs(z)
        h_wide, lp_wide = entropy_and_logprobs(wide)
        assert lp.dtype == np.float64 and lp.tobytes() == lp_wide.tobytes()
        assert math.isfinite(h) and h == h_wide
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
