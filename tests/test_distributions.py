import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spreg.distributions import as_logits, log_softmax, normalized_entropy, shannon_entropy

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
