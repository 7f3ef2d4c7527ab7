import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreg.monitor import EntropyWindow, entropy_gradient

from _oracles import naive_slope, naive_window_stats

entropy_values = st.floats(min_value=0.0, max_value=12.0, allow_nan=False)


class TestEntropyWindow:
    def test_ring_semantics_keeps_last_capacity(self):
        w = EntropyWindow(capacity=10)
        for i in range(11):
            w.push(float(i))
        assert len(w) == 10
        assert w.stats() == pytest.approx(naive_window_stats(range(1, 11)), abs=1e-12)

    def test_single_sample_stats(self):
        w = EntropyWindow()
        w.push(2.0)
        assert w.stats() == (2.0, 0.0)

    def test_population_std(self):
        w = EntropyWindow()
        for v in (1.0, 2.0, 3.0):
            w.push(v)
        mu, sigma = w.stats()
        assert mu == pytest.approx(2.0, abs=1e-12)
        assert sigma == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)
        assert sigma == pytest.approx(0.816497, abs=1e-6)

    def test_two_sample_stats(self):
        w = EntropyWindow()
        w.push(1.8)
        w.push(2.2)
        mu, sigma = w.stats()
        assert mu == pytest.approx(2.0, abs=1e-12)
        assert sigma == pytest.approx(0.2, abs=1e-12)

    def test_constant_series_has_zero_sigma(self):
        w = EntropyWindow()
        for _ in range(4):
            w.push(2.0)
        assert w.stats() == (2.0, 0.0)

    def test_empty_window_not_ready(self):
        assert EntropyWindow().stats() == (None, None)

    def test_tail_tracks_recent_values(self):
        w = EntropyWindow(capacity=10, tail_size=5)
        for i in range(8):
            w.push(float(i))
        assert w.tail(5) == (3.0, 4.0, 5.0, 6.0, 7.0)
        assert w.tail(4) == (4.0, 5.0, 6.0, 7.0)

    @given(st.lists(entropy_values, min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_stats_match_batch_recomputation(self, values):
        w = EntropyWindow(capacity=10)
        for i, v in enumerate(values):
            w.push(v)
            mu, sigma = w.stats()
            ref_mu, ref_sigma = naive_window_stats(values[: i + 1][-10:])
            assert mu == pytest.approx(ref_mu, abs=1e-12)
            assert sigma == pytest.approx(ref_sigma, abs=1e-12)


class TestEntropyGradient:
    def test_exact_linear_series(self):
        assert entropy_gradient([1.0, 1.3, 1.6, 1.9, 2.2]) == pytest.approx(0.3, abs=1e-12)

    def test_dyadic_linear_series_is_bit_exact(self):
        series = [1.0 + 0.25 * i for i in range(5)]
        assert entropy_gradient(series) == 0.25

    def test_constant_series(self):
        assert entropy_gradient([2.0] * 5) == 0.0

    def test_hand_worked_series(self):
        assert entropy_gradient([1.0, 2.0, 1.5, 2.5, 3.0]) == pytest.approx(0.45, abs=1e-12)

    @given(st.lists(entropy_values, min_size=2, max_size=12))
    @settings(max_examples=200)
    def test_matches_least_squares_oracle(self, values):
        assert entropy_gradient(values) == pytest.approx(naive_slope(values), abs=1e-9)

    @given(
        st.lists(entropy_values, min_size=5, max_size=5),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    @settings(max_examples=200)
    def test_translation_invariance(self, values, shift):
        shifted = [v + shift for v in values]
        assert entropy_gradient(shifted) == pytest.approx(entropy_gradient(values), abs=1e-9)

    @given(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=5, max_size=5))
    @settings(max_examples=100)
    def test_linear_series_returns_common_difference(self, _):
        rng = np.random.default_rng(3)
        start, diff = rng.uniform(0, 2), rng.uniform(-0.3, 0.3)
        series = [start + diff * i for i in range(5)]
        assert entropy_gradient(series) == pytest.approx(diff, abs=1e-12)
