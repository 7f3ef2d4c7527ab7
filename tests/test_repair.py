import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import spreg.controller
import spreg.distributions
import spreg.repair
from spreg.distributions import log_softmax, shannon_entropy
from spreg.errors import ConfigError
from spreg.plan_tracker import GuidanceTable, StepType
from spreg.repair import (
    ReferencePool,
    RepairParams,
    adaptive_scale,
    aggressive_recover,
    guided_logits,
    repetition_penalty,
    token_weights,
)

from _oracles import oracle_pool_reference

PARAMS = RepairParams()
TABLE = GuidanceTable()

logit_vectors = arrays(
    np.float64,
    shape=st.integers(min_value=2, max_value=64),
    elements=st.floats(min_value=-30, max_value=30, allow_nan=False, allow_infinity=False),
)


class TestRepairParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda_max": 0.5},
            {"rho": 1.0},
            {"rho": 0.9},
            {"t_recover": 0.0},
            {"t_recover": 1.5},
            {"recent_window": 0},
            {"beta": -0.1},
            {"eta": -0.1},
            {"lambda_max": 1e61},
            {"eta": 1e61},
            {"rho": 1e61},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            RepairParams(**kwargs)


class TestReferencePool:
    def test_eviction_is_oldest_first(self):
        pool = ReferencePool(2, capacity=32)
        for i in range(33):
            assert pool.record(log_softmax([float(i), 0.0])) is True
        assert len(pool) == 32
        first = pool.synthesize()
        # Entry 0 is gone: all remaining entries came from i = 1..32.
        lone = ReferencePool(2, capacity=32)
        for i in range(1, 33):
            lone.record(log_softmax([float(i), 0.0]))
        assert first == pytest.approx(lone.synthesize(), abs=0)

    def test_empty_pool_is_uniform(self):
        pool = ReferencePool(4)
        assert pool.synthesize() == pytest.approx([-math.log(4)] * 4, abs=1e-12)

    def test_single_entry_round_trips(self):
        pool = ReferencePool(3)
        lp = log_softmax([2.0, 0.0, -1.0])
        pool.record(lp)
        stored = lp.astype(np.float32).astype(np.float64)
        assert pool.synthesize() == pytest.approx(log_softmax(stored), abs=0)

    def test_rows_are_float32_copies(self):
        pool = ReferencePool(3)
        lp = log_softmax([2.0, 0.0, -1.0])
        pool.record(lp)
        lp[:] = 0.0
        (row,) = pool._entries
        assert row.dtype == np.float32
        assert np.array_equal(row, log_softmax([2.0, 0.0, -1.0]).astype(np.float32))

    def test_log_prob_below_float32_range_is_stored_at_its_floor(self):
        # pytest turns numpy's overflow warning into an error here, so the
        # cast must not warn.
        floor = -np.finfo(np.float32).max
        pool = ReferencePool(3, capacity=2)
        lp = log_softmax([0.0, -9.9e99, 1.0])
        assert lp[1] < 2 * float(floor)
        pool.record(lp)
        assert pool._entries[0][1] == floor
        pool.record(log_softmax([0.0, 1.0, 2.0]))
        reference = pool.synthesize()
        assert np.all(np.isfinite(reference))
        rows = np.stack([lp, log_softmax([0.0, 1.0, 2.0])])
        assert np.array_equal(reference, oracle_pool_reference(rows, 2))

    def test_mirrored_pair_averages_to_uniform(self):
        pool = ReferencePool(2)
        pool.record(log_softmax([2.0, 0.0]))
        pool.record(log_softmax([0.0, 2.0]))
        assert pool.synthesize() == pytest.approx([-math.log(2)] * 2, abs=1e-12)

    @given(
        vocab=st.integers(min_value=2, max_value=64),
        capacity=st.sampled_from([1, 2, 3, 32, None]),
        magnitude=st.floats(min_value=0.0, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_matches_stacked_mean_oracle(self, vocab, capacity, magnitude, seed, data):
        # None stands for a capacity larger than the whole stream.
        n = data.draw(st.integers(min_value=0, max_value=3 * (capacity or 32) + 1))
        capacity = capacity or n + 1
        rng = np.random.default_rng(seed)
        rows = [log_softmax(z) for z in rng.uniform(-magnitude, magnitude, (n, vocab))]
        entries = np.array(rows).reshape(n, vocab)
        pool = ReferencePool(vocab, capacity=capacity)
        assert np.array_equal(pool.synthesize(), oracle_pool_reference(entries[:0], capacity))
        for i, lp in enumerate(rows, start=1):
            pool.record(lp)
            assert np.array_equal(pool.synthesize(), oracle_pool_reference(entries[:i], capacity))

    def test_synthesize_does_not_materialise_the_pool(self):
        vocab, capacity = 4096, 32
        rng = np.random.default_rng(0)
        pool = ReferencePool(vocab, capacity=capacity)
        for _ in range(capacity):
            pool.record(log_softmax(rng.normal(size=vocab)))
        tracemalloc.start()
        try:
            pool.synthesize()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A handful of |V| float64 temporaries, not a capacity x |V| stack.
        assert peak < 8 * vocab * 8


class TestAdaptiveScale:
    def test_worked_example_with_default_guard(self):
        # base 1.5 * (1 + beta 0.5 * (H 3 - mu 2) / (mu 2 + 1e-6)).
        lam = adaptive_scale(3.0, 2.0, StepType.REASONING, 0, TABLE, PARAMS)
        assert lam == pytest.approx(1.5 * (1.0 + 0.5 * 1.0 / (2.0 + 1e-6)), abs=1e-12)
        assert lam == pytest.approx(1.875, abs=1e-6)

    def test_zero_excess_returns_base(self):
        lam = adaptive_scale(2.0, 2.0, StepType.REASONING, 0, TABLE, PARAMS)
        assert lam == pytest.approx(1.5, abs=1e-12)
        lam = adaptive_scale(2.0, 2.0, StepType.ACTION, 0, TABLE, PARAMS)
        assert lam == pytest.approx(1.8, abs=1e-12)

    def test_cap_binds(self):
        lam = adaptive_scale(10.0, 2.0, StepType.REASONING, 0, TABLE, PARAMS)
        assert lam == 3.0
        # 1.5 * (1 + 0.5 * 8 / 2) = 4.5: the cap is what holds it at 3.
        wide = RepairParams(lambda_max=10.0)
        assert adaptive_scale(10.0, 2.0, StepType.REASONING, 0, TABLE, wide) > 3.0

    def test_floor_binds_when_entropy_below_mean(self):
        lam = adaptive_scale(0.5, 2.0, StepType.REASONING, 0, TABLE, PARAMS)
        assert lam == 1.0
        # Twice the base gives 3 * (1 + 0.5 * -1.5 / 2) = 1.875, inside the
        # band, so without the floor the default base would give 0.9375.
        doubled = GuidanceTable(lambda_base={StepType.REASONING: 3.0})
        unclamped = adaptive_scale(0.5, 2.0, StepType.REASONING, 0, doubled, PARAMS)
        assert 1.0 < unclamped < PARAMS.lambda_max
        assert unclamped / 2 < 1.0

    def test_decay_ratio_is_exact(self):
        # Wide cap and a large excess keep every scale inside the clamp band.
        wide = RepairParams(lambda_max=64.0)
        lam0 = adaptive_scale(22.0, 2.0, StepType.ACTION, 0, TABLE, wide)
        for r in (1, 2, 3, 7):
            lam_r = adaptive_scale(22.0, 2.0, StepType.ACTION, r, TABLE, wide)
            assert 1.0 < lam_r < wide.lambda_max
            assert lam_r == lam0 / (1 + r)

    @given(
        st.floats(min_value=0, max_value=8),
        st.floats(min_value=0.1, max_value=4),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=200)
    def test_clamped_into_band(self, h, mu, r):
        lam = adaptive_scale(h, mu, StepType.CONCLUSION, r, TABLE, PARAMS)
        assert 1.0 <= lam <= PARAMS.lambda_max

    def test_monotone_in_entropy_until_cap(self):
        mu = 2.0
        values = [
            adaptive_scale(h, mu, StepType.REASONING, 0, TABLE, PARAMS)
            for h in np.linspace(0.0, 12.0, 200)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == PARAMS.lambda_max


class TestTokenWeights:
    def test_zero_gain_gives_unit_weights(self):
        params = RepairParams(eta=0.0)
        w = token_weights([0.3, -2.0, 5.0], 0.7, params)
        assert np.all(w == 1.0)

    def test_hand_worked_example(self):
        w = token_weights([1.0, 1.0, 4.0], 0.5, PARAMS)
        assert w == pytest.approx([0.96464, 0.96464, 1.07071], abs=1e-4)

    def test_constant_reference_gives_unit_weights(self):
        w = token_weights([2.0, 2.0, 2.0], 0.9, PARAMS)
        assert w == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    @given(logit_vectors, st.floats(min_value=0, max_value=1))
    @settings(max_examples=200)
    def test_weights_center_on_one(self, ref, h_norm):
        w = token_weights(ref, h_norm, PARAMS)
        assert float(np.mean(w)) == pytest.approx(1.0, abs=1e-9)


class TestGuidedLogits:
    def test_scale_one_reproduces_conditional(self):
        cond = np.array([2.0, 0.0, -1.0])
        ref = log_softmax([0.0, 1.0, 0.5])
        out = guided_logits(cond, ref, 1.0)
        assert log_softmax(out) == pytest.approx(log_softmax(cond), abs=1e-9)

    def test_scale_zero_reproduces_reference(self):
        cond = np.array([2.0, 0.0, -1.0])
        ref = log_softmax([0.0, 1.0, 0.5])
        out = guided_logits(cond, ref, 0.0)
        assert log_softmax(out) == pytest.approx(ref, abs=1e-9)

    def test_hand_worked_extrapolation(self):
        out = guided_logits(log_softmax([2.0, 0.0]), log_softmax([1.0, 1.0]), 2.0)
        assert out == pytest.approx([0.439291, -3.560709], abs=1e-6)
        # The guided gap doubles from 2 to 4, so p = sigmoid(+-4).
        exact = 1.0 / (1.0 + math.exp(4.0))
        probs = np.exp(log_softmax(out))
        assert probs == pytest.approx([1.0 - exact, exact], abs=1e-12)
        assert probs == pytest.approx([0.98200, 0.01800], abs=2e-5)
        assert np.exp(log_softmax([2.0, 0.0])) == pytest.approx([0.880797, 0.119203], abs=1e-6)


class TestRepetitionPenalty:
    def test_positive_branch(self):
        out = repetition_penalty([2.6, 0.0], {0}, rho=1.3)
        assert out[0] == 2.0
        assert out[1] == 0.0

    def test_negative_branch(self):
        out = repetition_penalty([-1.0, 0.5], {0}, rho=1.3)
        assert out[0] == -1.3
        assert out[1] == 0.5

    def test_untouched_tokens_bit_identical(self):
        z = np.array([0.123456789, -3.2, 1.7, 0.0])
        out = repetition_penalty(z, {1}, rho=1.3)
        assert out[0] == z[0] and out[2] == z[2] and out[3] == z[3]

    def test_zero_logit_unchanged(self):
        out = repetition_penalty([0.0, 1.0], {0}, rho=2.0)
        assert out[0] == 0.0

    def test_out_of_range_ids_ignored(self):
        z = [1.0, -1.0]
        assert repetition_penalty(z, {5, -1}, rho=1.3) == pytest.approx(z)

    def test_out_buffer_or_in_place_matches_a_new_array(self):
        z = np.array([2.6, -1.0, 0.7, 0.0])
        expected = repetition_penalty(z, {0, 1, 3}, rho=1.3)
        buffer = np.empty_like(z)
        assert repetition_penalty(z, {0, 1, 3}, rho=1.3, out=buffer) is buffer
        assert buffer.tobytes() == expected.tobytes()
        assert repetition_penalty(z, {0, 1, 3}, rho=1.3, out=z) is z
        assert z.tobytes() == expected.tobytes()

    @given(logit_vectors, st.sets(st.integers(min_value=0, max_value=63), max_size=20))
    @settings(max_examples=200)
    def test_sign_preservation(self, z, recent):
        out = repetition_penalty(z, recent, rho=1.3)
        assert np.all(np.sign(out) == np.sign(z))


@given(logit_vectors, st.floats(min_value=0, max_value=1))
@settings(max_examples=50)
def test_public_forms_leave_their_arguments_unchanged(z, h):
    cond, ref = log_softmax(z), log_softmax(z[::-1])
    weights = token_weights(ref, h, PARAMS)
    factor = 2.0 * weights
    args = [z, cond, ref, weights, factor]
    before = [a.tobytes() for a in args]

    def bits(x) -> bytes:
        return np.asarray(x, dtype=np.float64).tobytes()

    # Each function, with and without explicit buffers, gives the same bits.
    out, work = np.empty_like(z), np.empty_like(z)
    assert log_softmax(z, out=out, work=work) is out
    assert bits(out) == bits(log_softmax(z))
    in_place = z.copy()
    assert bits(log_softmax(in_place, out=in_place)) == bits(out)
    assert bits(shannon_entropy(z, shifted=out, work=work)) == bits(shannon_entropy(z))
    assert bits(token_weights(ref, h, PARAMS, work=work)) == bits(weights)
    assert guided_logits(cond, ref, factor, out=out) is out
    assert bits(out) == bits(guided_logits(cond, ref, factor))
    repetition_penalty(cond, {0, 1}, PARAMS.rho)
    penalized, temperature = aggressive_recover(cond, ref, {0, 1}, PARAMS, out=out)
    assert penalized is out and temperature == PARAMS.t_recover
    assert bits(out) == bits(aggressive_recover(cond, ref, {0, 1}, PARAMS)[0])
    # The old call with weights as a fourth argument would write into them.
    with pytest.raises(TypeError):
        guided_logits(cond, ref, 2.0, weights)
    assert [a.tobytes() for a in args] == before


def test_math_functions_are_bound_under_their_own_names():
    # A module must not import one function under another's name: the
    # names then take different arguments in different modules.
    assert spreg.controller.guided_logits is spreg.repair.guided_logits
    assert spreg.repair.log_softmax is spreg.distributions.log_softmax
    for module in (spreg.controller, spreg.repair):
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__.startswith("spreg."):
                assert obj.__name__ == name, (module.__name__, name)
                assert getattr(sys.modules[obj.__module__], name) is obj


class TestAggressiveRecover:
    def test_empty_recent_set_reduces_to_guidance(self):
        cond = np.array([2.0, 0.0, -1.0])
        ref = log_softmax([0.0, 1.0, 0.5])
        out, temperature = aggressive_recover(cond, ref, set(), PARAMS)
        assert temperature == 0.3
        assert out == pytest.approx(guided_logits(cond, ref, PARAMS.lambda_max), abs=0)

    def test_recovery_temperature_sharpens(self):
        cond = np.array([2.0, 0.4, -1.0, 0.0])
        ref = log_softmax([0.1, 1.0, 0.5, 0.2])
        out, temperature = aggressive_recover(cond, ref, {0, 1}, PARAMS)
        assert shannon_entropy(out / temperature) < shannon_entropy(out)

    def test_looped_token_probability_drops(self):
        # The stream is stuck alternating tokens 0 and 1; history references
        # are sharper than the current conditional on the same two tokens.
        ref = log_softmax([3.0, 2.8, 0.0, 0.0, 0.0, 0.0])
        cond = np.array([1.5, 1.4, 0.0, 0.0, 0.0, 0.0])
        looped = int(np.argmax(cond))
        out, _ = aggressive_recover(cond, ref, {0, 1}, PARAMS)
        assert np.exp(log_softmax(out))[looped] < np.exp(log_softmax(cond))[looped]
