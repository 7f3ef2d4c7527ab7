import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreg.detector import (
    DecisionKind,
    DetectorConfig,
    Phase,
    SpikeDetector,
    is_spike,
    prefilter,
    severity_duration,
)
from spreg.errors import ConfigError
from spreg.monitor import EntropyWindow, entropy_gradient

from _oracles import oracle_decisions, random_h_seq

CFG = DetectorConfig()


def run_machine(h_seq, cfg: DetectorConfig):
    """Wire window + detector exactly as the controller does."""
    window = EntropyWindow(capacity=cfg.window, tail_size=cfg.n_grad)
    detector = SpikeDetector(cfg)
    out = []
    for h in h_seq:
        h = float(h)
        mu, sigma = window.stats()
        prior = window.tail(cfg.n_grad - 1)
        gradient = (
            entropy_gradient([*prior, h]) if len(prior) == cfg.n_grad - 1 else None
        )
        phase, decision = detector.advance(h, mu, sigma, gradient)
        window.push(h)
        out.append((phase, decision))
    return out


class TestConfig:
    def test_defaults(self):
        assert (CFG.alpha, CFG.h_min, CFG.g_min, CFG.h_extreme) == (1.5, 2.0, 0.3, 3.5)
        assert (CFG.t_warm, CFG.t_cool, CFG.n_grad, CFG.c_high) == (5, 30, 5, 50)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"h_min": -0.1},
            {"h_extreme": 1.9},
            {"t_warm": -1},
            {"t_cool": -1},
            {"n_grad": 1},
            {"c_high": 0},
            {"window": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            DetectorConfig(**kwargs)


class TestPrefilter:
    def test_slow_moderate_rise_is_filtered(self):
        assert prefilter(0.2, 3.0, CFG) is False

    def test_extreme_state_bypasses_gradient(self):
        assert prefilter(0.2, 3.6, CFG) is True

    def test_rapid_surge_passes(self):
        assert prefilter(0.5, 2.1, CFG) is True

    def test_boundaries_inclusive(self):
        assert prefilter(0.3, 0.0, CFG) is True
        assert prefilter(0.0, 3.5, CFG) is True


class TestIsSpike:
    def test_spike(self):
        assert is_spike(2.5, 2.0, 0.2, CFG) is True

    def test_below_relative_threshold(self):
        assert is_spike(2.25, 2.0, 0.2, CFG) is False

    def test_blocked_by_absolute_floor(self):
        assert is_spike(1.0, 0.5, 0.1, CFG) is False

    @given(
        st.floats(min_value=0, max_value=6),
        st.floats(min_value=0, max_value=4),
        st.floats(min_value=0, max_value=1.5),
    )
    @settings(max_examples=300)
    def test_matches_definition(self, h, mu, sigma):
        expected = h > mu + CFG.alpha * sigma and h >= CFG.h_min
        assert is_spike(h, mu, sigma, CFG) is expected


class TestSeverity:
    @pytest.mark.parametrize(
        "h, expected", [(2.4, 1), (2.6, 2), (3.5, 3)]
    )
    def test_mapping(self, h, expected):
        assert severity_duration(h, 2.0, 0.2, CFG) == expected

    @given(
        st.floats(min_value=0, max_value=8),
        st.floats(min_value=0, max_value=4),
        st.floats(min_value=0, max_value=2),
    )
    @settings(max_examples=200)
    def test_always_in_range(self, h, mu, sigma):
        assert severity_duration(h, mu, sigma, CFG) in (1, 2, 3)


class TestStateMachine:
    def test_no_trigger_during_warmup(self):
        # Spike conditions hold from step 1 onward, but the window absorbs
        # the high values during warmup so nothing fires afterward either.
        h = [1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]
        results = run_machine(h, DetectorConfig(t_warm=5))
        for phase, decision in results[:5]:
            assert phase is Phase.WARMUP
            assert decision.kind is DecisionKind.NO_ACTION
        assert all(d.kind is DecisionKind.NO_ACTION for _, d in results)

    def test_trigger_at_first_eligible_step(self):
        h = [1.0, 1.0, 1.0, 1.0, 1.0, 5.0]
        results = run_machine(h, DetectorConfig(t_warm=5))
        assert results[5][0] is Phase.MONITORING
        assert results[5][1].kind is DecisionKind.TRIGGER_REPAIR

    def test_cooldown_suppresses_second_spike(self):
        cfg = DetectorConfig()
        h = [1.0] * 20 + [3.0] + [1.0] * 9 + [3.0] + [1.0] * 40
        results = run_machine(h, cfg)
        kinds = [d.kind for _, d in results]
        assert kinds[20] is DecisionKind.TRIGGER_REPAIR
        # The second spike lands 10 steps later, inside the cooldown.
        assert kinds[30] is DecisionKind.NO_ACTION
        assert results[30][0] is Phase.COOLDOWN
        assert kinds.count(DecisionKind.TRIGGER_REPAIR) == 1

    def test_repair_duration_then_cooldown_then_monitoring(self):
        cfg = DetectorConfig(t_cool=4)
        h = [1.0] * 10 + [2.6] + [1.0] * 20
        results = run_machine(h, cfg)
        trigger = results[10][1]
        assert trigger.kind is DecisionKind.TRIGGER_REPAIR
        d = trigger.duration
        assert d in (1, 2, 3)
        for offset in range(1, d):
            phase, decision = results[10 + offset]
            assert phase is Phase.REPAIRING
            assert decision.kind is DecisionKind.CONTINUE_REPAIR
            assert decision.repair_index == trigger.repair_index
        for offset in range(d, d + 4):
            phase, decision = results[10 + offset]
            assert phase is Phase.COOLDOWN
            assert decision.kind is DecisionKind.NO_ACTION
        assert results[10 + d + 4][0] is Phase.MONITORING

    def test_aggressive_fires_at_exactly_the_threshold(self):
        cfg = DetectorConfig(c_high=50, t_warm=5)
        # Strictly increasing series stays above the trailing mean forever
        # while remaining under h_min, so only the counter path can fire.
        h = [0.5 + 0.01 * i for i in range(80)]
        results = run_machine(h, cfg)
        aggressive = [t for t, (_, d) in enumerate(results)
                      if d.kind is DecisionKind.AGGRESSIVE_RECOVER]
        # Counter first exceeds mu at t=1 (t=0 has no history), so the
        # 50th consecutive above-mean step is t=50.
        assert aggressive[0] == 50
        phase, _ = results[50]
        assert phase is Phase.MONITORING
        # Cooldown follows the activation.
        assert results[51][0] is Phase.COOLDOWN

    def test_aggressive_precedes_spike_repair(self):
        # h_min keeps the earlier steps from spiking; at t=3 both the spike
        # rule and the counter rule hold and the aggressive path must win.
        cfg = DetectorConfig(c_high=3, t_warm=0, h_min=4.0, h_extreme=5.0, g_min=0.0)
        h = [1.0, 2.0, 3.2, 4.8]
        results = run_machine(h, cfg)
        assert is_spike(4.8, 2.0666666666666667, np.std([2.0, 3.2, 1.0]), cfg)
        assert results[3][1].kind is DecisionKind.AGGRESSIVE_RECOVER

    def test_min_gap_between_triggers(self):
        cfg = DetectorConfig(t_cool=6)
        rng = np.random.default_rng(0)
        h = list(1.0 + 0.02 * rng.standard_normal(200))
        for t in (20, 24, 40, 70, 90, 140):
            h[t] = 3.0
        results = run_machine(h, cfg)
        triggers = [
            (t, d.duration)
            for t, (_, d) in enumerate(results)
            if d.kind is DecisionKind.TRIGGER_REPAIR
        ]
        assert len(triggers) >= 2
        for (t1, d1), (t2, _) in zip(triggers, triggers[1:]):
            assert t2 - t1 >= d1 + cfg.t_cool

    def test_entropy_equal_to_mean_never_escalates(self):
        # A constant series sits exactly on its window mean from t=1 on (and
        # has no mean at t=0), so the above-mean count never reaches even 1.
        cfg = DetectorConfig(c_high=1, t_warm=0)
        results = run_machine([1.0] * 40, cfg)
        assert all(d.kind is DecisionKind.NO_ACTION for _, d in results)

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_against_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            cfg = DetectorConfig(
                window=int(rng.choice([4, 10])),
                alpha=float(rng.choice([1.0, 1.5])),
                h_min=float(rng.choice([0.5, 2.0])),
                g_min=float(rng.choice([0.05, 0.3])),
                h_extreme=float(rng.choice([2.5, 3.5])) + 0.1,
                t_warm=int(rng.choice([0, 2, 5])),
                t_cool=int(rng.choice([0, 3, 12])),
                n_grad=int(rng.choice([3, 5])),
                c_high=int(rng.choice([5, 25])),
            )
            h = random_h_seq(rng)
            got = [
                {
                    "phase": phase.value,
                    "kind": decision.kind.value,
                    "duration": decision.duration,
                    "repair_index": decision.repair_index,
                }
                for phase, decision in run_machine(h, cfg)
            ]
            assert got == oracle_decisions(h, cfg)
