import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreg.config import config_from_dict
from spreg.controller import Controller, ControllerConfig, EventRecord, Mode, ReferenceSource
from spreg.detector import DetectorConfig
from spreg.distributions import BLOCK, log_softmax, normalized_entropy, shannon_entropy
from spreg.errors import ConfigError, ProtocolError
from spreg.harness import DriftRegime, LoopRegime, Scenario, SpikeInjection, StableRegime
from spreg.plan_tracker import GuidanceTable, StepType
from spreg.repair import (
    MAX_GAIN,
    ReferencePool,
    RepairParams,
    adaptive_scale,
    aggressive_recover,
    guided_logits,
    token_weights,
)

VOCAB = 16


def make_config(**kwargs) -> ControllerConfig:
    return ControllerConfig(vocab_size=VOCAB, **kwargs)


def logits_for_entropy(rng: np.random.Generator, peaked: bool) -> np.ndarray:
    base = rng.standard_normal(VOCAB) * 0.2
    if peaked:
        base[0] += 6.0
    return base


def stable_logits(rng: np.random.Generator) -> np.ndarray:
    # Entropy ~0.8, comfortably under h_min, mildly varying.
    z = rng.standard_normal(VOCAB) * 0.1
    z[int(rng.integers(VOCAB))] += 4.5
    return z


def spike_logits() -> np.ndarray:
    return np.zeros(VOCAB)  # uniform: entropy = ln 16 = 2.77 > h_min


class TestLifecycle:
    def test_fresh_controller_starts_in_warmup(self):
        ctrl = Controller(make_config())
        _, event = ctrl.process_step(0, np.zeros(VOCAB))
        assert event.phase.value == "warmup"
        assert event.step_type is StepType.REASONING
        assert event.t == 0

    def test_two_controllers_are_independent(self):
        config = make_config()
        a, b = Controller(config), Controller(config)
        a.process_step(0, np.zeros(VOCAB))
        summary_b = b.finish()
        assert summary_b.total_steps == 0
        assert a.finish().total_steps == 1

    def test_vocab_size_one_rejected(self):
        with pytest.raises(ConfigError):
            ControllerConfig(vocab_size=1)

    def test_wrong_vector_length_rejected(self):
        ctrl = Controller(make_config())
        with pytest.raises(ValueError):
            ctrl.process_step(0, np.zeros(VOCAB + 1))

    def test_non_monotonic_step_rejected(self):
        ctrl = Controller(make_config())
        ctrl.process_step(0, np.zeros(VOCAB))
        with pytest.raises(ProtocolError):
            ctrl.process_step(2, np.zeros(VOCAB))
        with pytest.raises(ProtocolError):
            ctrl.process_step(0, np.zeros(VOCAB))

    def test_bad_config_type_rejected(self):
        with pytest.raises(ConfigError):
            Controller({"vocab_size": 4})

    @pytest.mark.parametrize("vocab", [10**15, 2**62])
    def test_unallocatable_vocab_is_a_config_error(self, vocab):
        # numpy raises MemoryError at 10**15 and ValueError at 2**62.
        with pytest.raises(ConfigError, match=f"vocab_size {vocab} cannot be allocated"):
            Controller(ControllerConfig(vocab_size=vocab))

    @pytest.mark.parametrize("vocab", [8.0, "8", None, True], ids=repr)
    def test_vocab_that_is_not_an_integer_is_a_config_error(self, vocab):
        # A config or scenario is checked when it is built, by replace too.
        for build in (ControllerConfig, partial(Scenario, length=1)):
            with pytest.raises(ConfigError) as exc:
                build(vocab_size=vocab)
            assert str(exc.value) == f"vocab_size must be an integer, got {vocab!r}"
        with pytest.raises(ConfigError, match="must be an integer"):
            replace(ControllerConfig(vocab_size=8), vocab_size=vocab)

    @pytest.mark.parametrize(
        "build, message",
        [
            (partial(DetectorConfig, c_high="5"), "c_high must be an integer, got '5'"),
            (partial(DetectorConfig, t_cool=2.5), "t_cool must be an integer, got 2.5"),
            (partial(DetectorConfig, n_grad=True), "n_grad must be an integer, got True"),
            (partial(DetectorConfig, window=2**63), f"window must be at most {sys.maxsize}"),
            (
                partial(RepairParams, recent_window=True),
                "recent_window must be an integer, got True",
            ),
            (
                partial(RepairParams, pool_capacity=2**63),
                f"pool_capacity must be at most {sys.maxsize}",
            ),
            (partial(Scenario, 8, "1"), "length must be an integer, got '1'"),
            (partial(Scenario, 8, 1, seed=1.5), "seed must be an integer, got 1.5"),
            (partial(Scenario, 8, 1, seed=2**63), f"seed must be at most {sys.maxsize}"),
            (
                partial(Scenario, 8, 1, segments=(StableRegime(1, 1.0, anchors=(1.0,)),)),
                "anchors must be an integer, got 1.0",
            ),
            (
                partial(Scenario, 8, 2, segments=(DriftRegime(2.0, 0.1, start_entropy=1.0),)),
                "steps must be an integer, got 2.0",
            ),
            (
                partial(Scenario, 8, 1, segments=(LoopRegime(1, (1, True), 1.0),)),
                "tokens must be an integer, got True",
            ),
            (
                partial(
                    Scenario,
                    8,
                    2,
                    segments=(StableRegime(2, 1.0), SpikeInjection(at_step=1.0, magnitude=3.0)),
                ),
                "at_step must be an integer, got 1.0",
            ),
            (
                partial(
                    Scenario,
                    8,
                    2,
                    segments=(StableRegime(2, 1.0), SpikeInjection(0, 3.0, width=1.5)),
                ),
                "width must be an integer, got 1.5",
            ),
            (partial(DetectorConfig, alpha=True), "alpha must be a finite number, got True"),
            (
                partial(DetectorConfig, alpha=float("inf")),
                "alpha must be a finite number, got inf",
            ),
            (partial(DetectorConfig, alpha="1"), "alpha must be a finite number, got '1'"),
            (
                partial(RepairParams, lambda_max="2"),
                "lambda_max must be a finite number, got '2'",
            ),
            (
                partial(GuidanceTable, lambda_base={"action": "2"}),
                "lambda_base.action must be a finite number, got '2'",
            ),
            (
                partial(Scenario, 8, 1, segments=(5,)),
                "segments must be one of StableRegime, DriftRegime, LoopRegime, SpikeInjection,"
                " got 5",
            ),
            (
                partial(Scenario, 8, 1, segments=(StableRegime(1, 1.0, anchors=5),)),
                "anchors must be a list, got 5",
            ),
            # Not later: a stray pattern set would fail after a step committed.
            (partial(make_config, patterns="x"), "patterns must be a PatternSet, got 'x'"),
            (
                partial(make_config, detector={"alpha": 1.0}),
                "detector must be a DetectorConfig, got {'alpha': 1.0}",
            ),
            (partial(make_config, repair=None), "repair must be a RepairParams, got None"),
            (partial(make_config, guidance={}), "guidance must be a GuidanceTable, got {}"),
        ],
    )
    def test_an_integer_field_built_in_process_takes_only_an_integer(self, build, message):
        # The JSON gate's type rule applies to every field when the object
        # is built, before any value rule.
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value).startswith(message)

    def test_numpy_scalars_follow_the_rule_of_the_number_they_are(self):
        # An integer field takes np.int64 (an integer by operator.index) and
        # a real field np.float64 (a float). A real field takes no other
        # numpy scalar, as a JSON real is a Python int or float.
        config = DetectorConfig(window=np.int64(5), alpha=np.float64(2.0))
        assert config == DetectorConfig(window=5, alpha=2.0)
        assert ControllerConfig(vocab_size=np.int64(VOCAB)) == make_config()
        for build in (
            partial(RepairParams, eta=np.float32(0.1)),
            partial(DetectorConfig, alpha=np.int64(2)),
        ):
            with pytest.raises(ConfigError, match="^(eta|alpha) must be a finite number, got "):
                build()

    def test_a_list_built_in_process_is_held_as_the_json_tuple(self):
        segment = StableRegime(1, 1.0, anchors=[1])
        scenario = Scenario(8, 1, segments=[segment])
        row = {"kind": "stable", "steps": 1, "target_entropy": 1.0, "anchors": [1]}
        assert scenario == Scenario.from_dict({"vocab_size": 8, "length": 1, "segments": [row]})
        assert hash(scenario) == hash(Scenario(8, 1, segments=(StableRegime(1, 1.0, anchors=(1,)),)))
        assert segment.anchors == [1]  # the caller's segment is not written into

    @pytest.mark.parametrize("doc", ["x", 2.0])
    def test_a_doc_entry_built_in_process_is_skipped_as_in_json(self, doc):
        lambda_base = {"doc": doc, "action": 2.0}
        from_json = config_from_dict({"vocab_size": 8, "guidance": {"lambda_base": lambda_base}})
        assert GuidanceTable(lambda_base=lambda_base) == from_json.guidance
        assert len(from_json.guidance.lambda_base) == len(StepType)


class TestFailedStep:
    """A step that raises changes no stream state, so the host can retry its t."""

    @staticmethod
    def step(ctrl, t, z, ref=None, **token):
        token = {"token_id": (t - 1) % VOCAB, "token_text": " x", **token} if t else {}
        return ctrl.process_step(t, z, ref, **token)

    @pytest.mark.parametrize(
        "bad_t, cond, ref, token",
        [
            (3, np.full(VOCAB, np.nan), None, {}),
            (20, None, np.zeros(VOCAB + 1), {}),
            (3, None, np.full(VOCAB, np.nan), {}),
            (3, None, None, {"token_id": "abc"}),
            (3, None, None, {"token_text": 5}),
            (20, np.array([1e308, -1e308] + [0.0] * (VOCAB - 2)), None, {}),
        ],
        ids=[
            "nan_logits",
            "bad_ref_on_spike",
            "bad_ref_on_passthrough",
            "bad_token_id",
            "bad_token_text",
            "overflowing_logits",
        ],
    )
    def test_retry_after_failed_step_matches_clean_run(self, bad_t, cond, ref, token):
        rng = np.random.default_rng(3)
        inputs = [spike_logits() if t == 20 else stable_logits(rng) for t in range(40)]
        clean = Controller(make_config())
        expected = [self.step(clean, t, z) for t, z in enumerate(inputs)]
        assert expected[20][1].spike and expected[3][1].mode is Mode.NONE

        ctrl = Controller(make_config())
        got = []
        for t, z in enumerate(inputs):
            if t == bad_t:
                # Hosts do not turn numpy warnings into errors.
                with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
                    self.step(ctrl, t, z if cond is None else cond, ref, **token)
            got.append(self.step(ctrl, t, z))
        assert [e.to_json() for _, e in got] == [e.to_json() for _, e in expected]
        for (a, _), (b, _) in zip(got, expected):
            assert np.array_equal(a.logits, b.logits)
        assert ctrl.finish() == clean.finish()


class TestPassthrough:
    def test_quiet_stream_is_never_intervened(self):
        rng = np.random.default_rng(1)
        ctrl = Controller(make_config())
        for t in range(60):
            directive, event = ctrl.process_step(t, stable_logits(rng))
            assert directive.intervened is False
            assert directive.mode is Mode.NONE
            assert directive.temperature_override is None
            assert event.spike is False

    def test_passthrough_logits_bit_identical(self):
        rng = np.random.default_rng(2)
        ctrl = Controller(make_config())
        for t in range(20):
            z = stable_logits(rng)
            directive, _ = ctrl.process_step(t, z)
            assert directive.logits is not None
            assert np.array_equal(directive.logits, z)


def run_spike_trace(config: ControllerConfig, spike_at: int = 20, steps: int = 40):
    rng = np.random.default_rng(3)
    ctrl = Controller(config)
    inputs, out = [], []
    for t in range(steps):
        z = spike_logits() if t == spike_at else stable_logits(rng)
        inputs.append(z)
        out.append(ctrl.process_step(t, z))
    return ctrl, inputs, out


class TestRepairPath:
    def test_constructed_spike_triggers_repair(self):
        config = make_config()
        ctrl, inputs, out = run_spike_trace(config)
        directive, event = out[20]
        assert event.spike is True
        assert event.phase.value == "monitoring"
        assert directive.intervened and directive.mode is Mode.REPAIR
        assert event.repair_index == 0
        assert event.reference_source.value in ("pool", "uniform")
        # Cross-check lambda and the guided logits against the module ops.
        h = shannon_entropy(inputs[20])
        trailing = [shannon_entropy(z) for z in inputs[10:20]]
        mu = float(np.mean(trailing))
        assert event.mu == pytest.approx(mu, abs=1e-12)
        lam = adaptive_scale(
            h, mu, event.step_type, 0, config.guidance, config.repair
        )
        assert event.lambda_applied == pytest.approx(lam, abs=1e-12)
        assert event.entropy == pytest.approx(h, abs=1e-12)

    def test_repair_steps_follow_severity_duration(self):
        ctrl, _, out = run_spike_trace(make_config())
        modes = [event.mode for _, event in out]
        duration = sum(1 for m in modes if m is Mode.REPAIR)
        assert duration in (1, 2, 3)
        trigger_events = [e for _, e in out if e.spike]
        assert len(trigger_events) == 1
        # Continuation steps carry the same repair index as the trigger.
        repair_events = [e for _, e in out if e.mode is Mode.REPAIR]
        assert {e.repair_index for e in repair_events} == {0}
        # Cooldown follows immediately after the repair run.
        last_repair_t = max(e.t for e in repair_events)
        assert out[last_repair_t + 1][1].phase.value == "cooldown"

    def test_external_reference_takes_precedence(self):
        config = make_config()
        rng = np.random.default_rng(4)
        ctrl = Controller(config)
        ref = np.zeros(VOCAB)
        ref[3] = 4.0
        for t in range(25):
            z = spike_logits() if t == 20 else stable_logits(rng)
            directive, event = ctrl.process_step(t, z, ref_logits=ref)
            if event.spike:
                assert event.reference_source.value == "external"
                lam = event.lambda_applied
                weights = token_weights(
                    log_softmax(ref), normalized_entropy(event.entropy, VOCAB), config.repair
                )
                expected = guided_logits(log_softmax(z), log_softmax(ref), lam * weights)
                assert directive.logits == pytest.approx(expected, abs=0)

    def test_uniform_spike_is_repaired_at_vocab_14(self):
        # At |V|=14 the computed entropy of uniform logits exceeds ln 14 by
        # one ulp; the spike step must still be repaired.
        rng = np.random.default_rng(3)
        ctrl = Controller(ControllerConfig(vocab_size=14))
        for t in range(20):
            z = rng.standard_normal(14) * 0.1
            z[0] += 4.5
            ctrl.process_step(t, z)
        directive, event = ctrl.process_step(20, np.zeros(14))
        assert event.spike and directive.mode is Mode.REPAIR
        assert np.all(np.isfinite(directive.logits))

    def test_modified_entropy_recorded_for_interventions(self):
        _, _, out = run_spike_trace(make_config())
        for directive, event in out:
            if event.mode is Mode.NONE:
                assert event.modified_entropy is None
            else:
                assert event.modified_entropy == shannon_entropy(directive.logits)


class TestAggressivePath:
    def make_ramp_controller(self, c_high: int = 12):
        config = make_config(detector=DetectorConfig(c_high=c_high))
        ctrl = Controller(config)
        return config, ctrl

    def ramp_logits(self, step: int) -> np.ndarray:
        # Slowly flattening distribution: entropy rises every step but stays
        # below h_min so only the counter path can fire.
        z = np.zeros(VOCAB)
        z[0] = 5.0 / (1.0 + 0.01 * step)
        z[1] = 4.8 / (1.0 + 0.01 * step)
        return z

    def test_ramp_stays_below_h_min(self):
        entropies = [shannon_entropy(self.ramp_logits(t)) for t in range(70)]
        assert all(b > a for a, b in zip(entropies, entropies[1:]))
        assert entropies[-1] < 2.0

    def test_aggressive_directive_shape(self):
        config, ctrl = self.make_ramp_controller()
        hits = []
        for t in range(40):
            directive, event = ctrl.process_step(t, self.ramp_logits(t))
            ctrl.notify_sampled(0, "")
            if event.mode is Mode.AGGRESSIVE:
                hits.append((t, directive, event))
        assert len(hits) == 1
        t, directive, event = hits[0]
        # count(t) = t on this ramp, so c_high consecutive steps land at t = c_high.
        assert t == 12
        assert directive.temperature_override == config.repair.t_recover == 0.3
        assert directive.intervened
        assert event.lambda_applied == config.repair.lambda_max
        assert event.spike is False
        assert event.repair_index is None

    def test_counter_resets_after_activation(self):
        # c_high=35 > t_cool+1: with the reset, the count rebuilt during the
        # cooldown (31 by its end) cannot refire at the first monitoring
        # step; without the reset it would fire immediately at t=66.
        config, ctrl = self.make_ramp_controller(c_high=35)
        activations = [
            t for t in range(68)
            if ctrl.process_step(t, self.ramp_logits(t))[1].mode is Mode.AGGRESSIVE
        ]
        assert activations == [35]


class TestSampledTokens:
    def test_recent_window_is_bounded(self):
        config = make_config(repair=RepairParams(recent_window=64))
        ctrl = Controller(config)
        for t in range(70):
            ctrl.process_step(t, np.zeros(VOCAB))
            ctrl.notify_sampled(t % VOCAB, "")
        assert len(ctrl._recent) == 64

    def test_notify_twice_rejected(self):
        ctrl = Controller(make_config())
        ctrl.process_step(0, np.zeros(VOCAB))
        ctrl.notify_sampled(1, "x")
        with pytest.raises(ProtocolError):
            ctrl.notify_sampled(1, "x")

    @pytest.mark.parametrize(
        "token_id, token_text", [("abc", ""), (1, 5), (2.5, ""), (True, ""), ("3", "")]
    )
    def test_bad_notify_leaves_the_token_pending(self, token_id, token_text):
        ctrl = Controller(make_config())
        ctrl.process_step(0, np.zeros(VOCAB))
        with pytest.raises(ValueError):
            ctrl.notify_sampled(token_id, token_text)
        ctrl.notify_sampled(1, "x")
        assert ctrl._recent == [1]

    def test_notify_before_any_step_rejected(self):
        ctrl = Controller(make_config())
        with pytest.raises(ProtocolError):
            ctrl.notify_sampled(1, "x")

    def test_inline_token_after_notify_rejected(self):
        ctrl = Controller(make_config())
        ctrl.process_step(0, np.zeros(VOCAB))
        ctrl.notify_sampled(1, "x")
        with pytest.raises(ProtocolError, match="^step 1: sampled token was already notified$"):
            ctrl.process_step(1, np.zeros(VOCAB), token_id=1, token_text="x")

    @pytest.mark.parametrize("token_id, token_text", [(1, None), (None, "x")])
    def test_inline_token_at_step_0_rejected(self, token_id, token_text):
        ctrl = Controller(make_config())
        with pytest.raises(ProtocolError) as exc:
            ctrl.process_step(0, np.zeros(VOCAB), token_id=token_id, token_text=token_text)
        assert str(exc.value) == "step 0: no token can be reported before the first step"
        # Nothing changed: the same step is accepted without the token.
        ctrl.process_step(0, np.zeros(VOCAB))
        assert ctrl._recent == []

    def test_conclusion_token_flips_step_type(self):
        ctrl = Controller(make_config())
        ctrl.process_step(0, np.zeros(VOCAB))
        ctrl.notify_sampled(2, "Therefore,")
        _, event = ctrl.process_step(1, np.zeros(VOCAB))
        assert event.step_type is StepType.CONCLUSION

    def test_empty_token_text_keeps_tracker_tail(self):
        ctrl = Controller(make_config())
        ctrl.process_step(0, np.zeros(VOCAB))
        ctrl.notify_sampled(5, "")
        assert ctrl._tracker.tail == ""
        assert ctrl._recent == [5]


class TestFinish:
    def test_untouched_stream_counts(self):
        rng = np.random.default_rng(7)
        ctrl = Controller(make_config())
        entropies = []
        for t in range(30):
            z = stable_logits(rng)
            entropies.append(shannon_entropy(z))
            ctrl.process_step(t, z)
        summary = ctrl.finish()
        assert summary.total_steps == 30
        assert summary.spikes == 0
        assert summary.repair_steps == 0
        assert summary.aggressive_recoveries == 0
        assert summary.mean_entropy == pytest.approx(float(np.mean(entropies)), abs=1e-9)

    def test_summary_matches_event_recount(self):
        _, _, out = run_spike_trace(make_config())
        events = [e for _, e in out]
        ctrl, _, out2 = run_spike_trace(make_config())
        summary = ctrl.finish()
        assert summary.spikes == sum(1 for e in events if e.spike)
        assert summary.repair_steps == sum(1 for e in events if e.mode is Mode.REPAIR)
        assert summary.aggressive_recoveries == sum(
            1 for e in events if e.mode is Mode.AGGRESSIVE
        )
        assert summary.total_steps == len(events)


class TestDeterminism:
    def test_replaying_inputs_reproduces_events_byte_for_byte(self):
        rng = np.random.default_rng(11)
        inputs = [stable_logits(rng) for _ in range(50)]
        inputs[25] = spike_logits()

        def run():
            ctrl = Controller(make_config())
            lines = []
            for t, z in enumerate(inputs):
                _, event = ctrl.process_step(t, z)
                lines.append(event.to_json())
            return "\n".join(lines)

        assert run() == run()

    def test_event_json_round_trip(self):
        _, _, out = run_spike_trace(make_config())
        for _, event in out:
            clone = EventRecord.from_dict(json.loads(event.to_json()))
            assert clone == event


class TestPipelineEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_events_match_module_level_recomputation(self, seed):
        # Random logit streams whose sharpness wanders, so warmup, repair,
        # cooldown, and aggressive paths all get exercised.
        from _oracles import oracle_decisions

        rng = np.random.default_rng(seed)
        config = make_config(
            detector=DetectorConfig(t_cool=int(rng.choice([0, 5, 30])),
                                    c_high=int(rng.choice([10, 50])))
        )
        ctrl = Controller(config)
        scale = 3.0
        entropies, events = [], []
        for t in range(150):
            scale = float(np.clip(scale * np.exp(rng.normal(0, 0.25)), 0.02, 30.0))
            z = rng.standard_normal(VOCAB) * scale
            _, event = ctrl.process_step(t, z)
            entropies.append(shannon_entropy(z))
            events.append(event)

        expected = oracle_decisions(entropies, config.detector)
        for event, step, h in zip(events, expected, entropies):
            assert event.phase.value == step["phase"]
            assert event.spike == (step["kind"] == "trigger_repair")
            assert event.entropy == pytest.approx(h, abs=1e-12)
            if step["kind"] in ("trigger_repair", "continue_repair"):
                assert event.mode is Mode.REPAIR
                assert event.repair_index == step["repair_index"]
                lam = adaptive_scale(
                    event.entropy,
                    event.mu,
                    event.step_type,
                    step["repair_index"],
                    config.guidance,
                    config.repair,
                )
                assert event.lambda_applied == pytest.approx(lam, abs=1e-12)
            elif step["kind"] == "aggressive_recover":
                assert event.mode is Mode.AGGRESSIVE
                assert event.lambda_applied == config.repair.lambda_max
            else:
                assert event.mode is Mode.NONE
                assert event.lambda_applied is None


class TestPoolRecording:
    def test_pool_not_fed_during_repair(self):
        config = make_config()
        ctrl, inputs, out = run_spike_trace(config)
        repair_ts = [e.t for _, e in out if e.mode is Mode.REPAIR]
        assert repair_ts
        # Rebuild the expected pool admissions: non-intervened steps whose
        # entropy fell below the pre-step mean.
        ctrl2 = Controller(config)
        admitted = 0
        for t, z in enumerate(inputs):
            h = shannon_entropy(z)
            mu = None
            if t > 0:
                trailing = [shannon_entropy(x) for x in inputs[max(0, t - 10):t]]
                mu = float(np.mean(trailing))
            _, event = ctrl2.process_step(t, z)
            if event.mode is Mode.NONE and mu is not None and h < mu:
                admitted += 1
        assert len(ctrl2._pool) == min(admitted, config.repair.pool_capacity)


# -- failed steps are transactions -------------------------------------------------

PROP_VOCAB = 8
PROP_CONFIG = ControllerConfig(
    vocab_size=PROP_VOCAB,
    detector=DetectorConfig(h_min=1.0, h_extreme=1.9, t_warm=3, t_cool=4, c_high=6),
)


@dataclass(frozen=True)
class StreamStep:
    """One valid step; ``notify`` reports the t-1 token by notify_sampled, not inline."""

    z: np.ndarray
    ref: np.ndarray | None
    token_id: int | None
    token_text: str | None
    notify: bool


def random_stream(seed: int, length: int) -> list[StreamStep]:
    """Sharp steps with periodic flat spikes and one flat run, so every mode occurs."""
    rng = np.random.default_rng(seed)
    period = int(rng.integers(8, 16))
    flat_start = int(rng.integers(10, length))
    steps = []
    for t in range(length):
        flat = t % period == period - 1 or flat_start <= t < flat_start + 10
        z = rng.standard_normal(PROP_VOCAB) * (0.2 if flat else 4.0)
        ref = rng.standard_normal(PROP_VOCAB) * 3.0 if rng.random() < 0.3 else None
        if t == 0:
            steps.append(StreamStep(z, ref, None, None, False))
        else:
            text = [" x", "Therefore,", "", " call"][int(rng.integers(4))]
            token = int(rng.integers(PROP_VOCAB))
            steps.append(StreamStep(z, ref, token, text, bool(rng.random() < 0.5)))
    return steps


def process(ctrl: Controller, t: int, step: StreamStep, **bad):
    kwargs = {"t": t, "cond_logits": step.z, "ref_logits": step.ref}
    if not step.notify:
        kwargs.update(token_id=step.token_id, token_text=step.token_text)
    return ctrl.process_step(**{**kwargs, **bad})


def run_stream(steps: list[StreamStep], fault_t: int | None = None, fault=None):
    """Run ``steps``; at ``fault_t`` make the faulty call first, then the valid one."""
    ctrl = Controller(PROP_CONFIG)
    out = []
    for t, step in enumerate(steps):
        if step.notify:
            ctrl.notify_sampled(step.token_id, step.token_text)
        if t == fault_t:
            before = pickle.dumps(ctrl)
            # Hosts do not turn numpy warnings into errors.
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises((ValueError, ProtocolError)):
                    fault(ctrl, t, step)
            assert pickle.dumps(ctrl) == before
        out.append(process(ctrl, t, step))
    return out, ctrl.finish()


def _with(z: np.ndarray, index: int, value: float) -> np.ndarray:
    z = z.copy()
    z[index] = value
    return z


OVERFLOW = np.array([1e308, -1e308] + [0.0] * (PROP_VOCAB - 2))

# Faults on the step's vectors or order; the token is delivered as the step says.
VECTOR_FAULTS = {
    "nan": lambda c, t, s: process(c, t, s, cond_logits=np.full(PROP_VOCAB, np.nan)),
    "+inf": lambda c, t, s: process(c, t, s, cond_logits=_with(s.z, 1, np.inf)),
    "-inf": lambda c, t, s: process(c, t, s, cond_logits=_with(s.z, 1, -np.inf)),
    "wrong_length": lambda c, t, s: process(c, t, s, cond_logits=np.zeros(PROP_VOCAB + 1)),
    "2d": lambda c, t, s: process(c, t, s, cond_logits=s.z[None, :]),
    "bad_ref": lambda c, t, s: process(c, t, s, ref_logits=np.zeros(PROP_VOCAB - 1)),
    "nan_ref": lambda c, t, s: process(c, t, s, ref_logits=np.full(PROP_VOCAB, np.nan)),
    "overflow": lambda c, t, s: process(c, t, s, cond_logits=OVERFLOW),
    "wide_range": lambda c, t, s: process(c, t, s, cond_logits=_with(s.z, 1, -1e300)),
    "wide_ref": lambda c, t, s: process(c, t, s, ref_logits=_with(s.z, 1, 1e300)),
    "t+1": lambda c, t, s: process(c, t + 1, s),
    "t-1": lambda c, t, s: process(c, t - 1, s),
    "t=float": lambda c, t, s: process(c, float(t), s),
}
# Faults in the sampled-token report: the step's token is reported inline.
TOKEN_FAULTS = {
    **{
        f"token_id={v!r}": lambda c, t, s, v=v: process(c, t, s, token_id=v)
        for v in (2.5, True, "3", "abc")
    },
    **{
        f"token_text={v!r}": lambda c, t, s, v=v: process(c, t, s, token_text=v)
        for v in (5, b"x", [" x"])
    },
}


def second_notify(ctrl, t, step):
    ctrl.notify_sampled(step.token_id, step.token_text)


class TestFailedStepProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(20, 60),
        fault=st.sampled_from(sorted(VECTOR_FAULTS) + sorted(TOKEN_FAULTS) + ["second_notify"]),
        data=st.data(),
    )
    def test_failed_call_changes_nothing_and_the_retry_matches_a_clean_run(
        self, seed, length, fault, data
    ):
        steps = random_stream(seed, length)
        if fault in VECTOR_FAULTS:
            fault_t = data.draw(st.integers(0, length - 1), label="fault_t")
            call = VECTOR_FAULTS[fault]
        else:
            # A token report needs a previous step; force how it is delivered.
            fault_t = data.draw(st.integers(1, length - 1), label="fault_t")
            call = TOKEN_FAULTS.get(fault, second_notify)
            steps[fault_t] = replace(steps[fault_t], notify=fault == "second_notify")
        expected, clean_summary = run_stream(steps)
        got, summary = run_stream(steps, fault_t, call)
        for (d, e), (d_clean, e_clean) in zip(got, expected, strict=True):
            assert e.to_json() == e_clean.to_json()
            assert d.mode is d_clean.mode
            assert d.temperature_override == d_clean.temperature_override
            assert np.array_equal(d.logits, d_clean.logits)
        assert summary == clean_summary

    def test_streams_cover_every_mode(self):
        # The property reaches the post-commit repair code only if its
        # streams have repair and aggressive steps.
        modes = set()
        for seed in range(5):
            out, _ = run_stream(random_stream(seed, 60))
            modes |= {d.mode for d, _ in out}
        assert modes == set(Mode)


EVERY_KIND = {
    (Mode.NONE, ReferenceSource.NA),
    (Mode.REPAIR, ReferenceSource.EXTERNAL),
    (Mode.REPAIR, ReferenceSource.POOL),
    (Mode.AGGRESSIVE, ReferenceSource.EXTERNAL),
    (Mode.AGGRESSIVE, ReferenceSource.POOL),
}


class TestStepNumerics:
    """The in-place step equals the public allocating functions, and owns its buffers."""

    SEEDS = range(5)

    def test_directives_equal_the_public_functions_composed_in_order(self):
        params = PROP_CONFIG.repair
        kinds = set()
        for seed in self.SEEDS:
            steps = random_stream(seed, 60)
            out, _ = run_stream(steps)
            kinds |= {(e.mode, e.reference_source) for _, e in out}
            pool = ReferencePool(PROP_VOCAB, params.pool_capacity)
            recent: list[int] = []
            for step, (directive, event) in zip(steps, out):
                if step.token_id is not None:
                    recent = (recent + [step.token_id])[-params.recent_window :]
                if event.mode is Mode.NONE:
                    if event.mu is not None and event.entropy < event.mu:
                        pool.record(step.z - np.max(step.z))
                    continue
                cond = log_softmax(step.z)
                ref = pool.synthesize() if step.ref is None else log_softmax(step.ref)
                if event.mode is Mode.AGGRESSIVE:
                    expected, _ = aggressive_recover(cond, ref, recent, params)
                else:
                    h_norm = normalized_entropy(event.entropy, PROP_VOCAB)
                    weights = token_weights(ref, h_norm, params)
                    expected = guided_logits(cond, ref, event.lambda_applied * weights)
                assert directive.logits == pytest.approx(expected, abs=0)
                assert event.modified_entropy == shannon_entropy(expected)
        assert kinds == EVERY_KIND

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_step_writes_into_the_callers_arrays(self, dtype):
        kinds = set()
        for seed in self.SEEDS:
            steps = [
                replace(s, z=s.z.astype(dtype), ref=None if s.ref is None else s.ref.astype(dtype))
                for s in random_stream(seed, 60)
            ]
            inputs = [
                (s.z, s.z.tobytes(), s.ref, None if s.ref is None else s.ref.tobytes())
                for s in steps
            ]
            ctrl = Controller(PROP_CONFIG)
            kept = []
            for t, step in enumerate(steps):
                if step.notify:
                    ctrl.notify_sampled(step.token_id, step.token_text)
                directive, event = process(ctrl, t, step)
                kinds.add((event.mode, event.reference_source))
                # Every input so far, and every directive kept from an
                # earlier step, is byte-equal to what it was.
                for z, z_bytes, ref, ref_bytes in inputs[: t + 1]:
                    assert z.tobytes() == z_bytes
                    assert ref is None or ref.tobytes() == ref_bytes
                for logits, logits_bytes in kept:
                    assert logits.tobytes() == logits_bytes
                kept.append((directive.logits, directive.logits.tobytes()))
        assert kinds == EVERY_KIND

    def test_no_step_writes_into_a_float64_array_subclass(self):
        # np.asarray gives such an input a new object over the host's memory,
        # so only a dtype change marks the widened conditional as the step's own.
        class HostArray(np.ndarray):
            pass

        modes = set()
        for seed in self.SEEDS:
            ctrl = Controller(PROP_CONFIG)
            for t, step in enumerate(random_stream(seed, 60)):
                z = step.z.astype(np.float64).view(HostArray)
                z_bytes = z.tobytes()
                if step.notify:
                    ctrl.notify_sampled(step.token_id, step.token_text)
                _, event = process(ctrl, t, replace(step, z=z))
                modes.add(event.mode)
                assert z.tobytes() == z_bytes
        assert modes == set(Mode)

    @pytest.mark.parametrize("dtype, repair_bound", [(np.float32, 3.25), (np.float64, 3.25)])
    def test_steady_state_step_allocates_at_most_four_vectors(self, dtype, repair_bound):
        # Allocating every temporary afresh took 7 vectors on a pool repair
        # and 8 on an external one. A float64 conditional needs no widened
        # copy; a narrower one's widened copy takes the reference log-probs
        # of an intervened step, so its repairs take no more.
        vocab = 4096
        vector = 8 * vocab
        rng = np.random.default_rng(5)

        def sharp():
            z = rng.standard_normal(vocab).astype(np.float32).astype(dtype)
            z[int(rng.integers(vocab))] += 12.0
            return z

        ctrl = Controller(ControllerConfig(vocab_size=vocab))
        peaks: dict = {}
        tracemalloc.start()
        try:
            for t in range(200):
                spike = t % 40 == 20
                # Spikes alternate between a host reference and the pool.
                z = np.zeros(vocab, dtype=dtype) if spike else sharp()
                ref = sharp() if spike and t % 80 < 40 else None
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                _, event = ctrl.process_step(t, z, ref)
                if t >= 80:
                    kind = (event.mode, event.reference_source)
                    peaks[kind] = max(peaks.get(kind, 0), tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert set(peaks) == {
            (Mode.NONE, ReferenceSource.NA),
            (Mode.REPAIR, ReferenceSource.EXTERNAL),
            (Mode.REPAIR, ReferenceSource.POOL),
        }
        # A quarter vector covers the step's small Python objects.
        assert peaks[(Mode.NONE, ReferenceSource.NA)] <= 3.25 * vector
        assert peaks[(Mode.REPAIR, ReferenceSource.EXTERNAL)] <= repair_bound * vector
        assert peaks[(Mode.REPAIR, ReferenceSource.POOL)] <= repair_bound * vector

    def test_stream_retains_float32_pool_rows_and_one_block_of_workspace(self):
        # Float64 pool rows would retain 2 * 8 * |V| bytes for the pool alone,
        # and a |V|-sized workspace 8 * |V|.
        vocab, capacity = 65536, 2
        config = ControllerConfig(vocab_size=vocab, repair=RepairParams(pool_capacity=capacity))
        rng = np.random.default_rng(6)
        inputs = [
            (rng.standard_normal(vocab) * rng.uniform(0.5, 2)).astype(np.float32)
            for _ in range(40)
        ]
        warm = Controller(config)  # fills module-level caches
        for t, z in enumerate(inputs[:20]):
            warm.process_step(t, z)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ctrl = Controller(config)
            for t, z in enumerate(inputs):
                ctrl.process_step(t, z)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(ctrl._pool) == capacity
        assert ctrl._work.size == BLOCK
        # 16 KB covers the stream's Python objects, the rows' array headers
        # among them.
        assert retained <= capacity * 4 * vocab + 8 * BLOCK + 16384


# Process CPU time against this thread's, over 200 steps with no BLAS pin.
_CPU_PROBE = """
import resource, time
import numpy as np
from spreg import Controller, ControllerConfig
vocab = 32768
rng = np.random.default_rng(3)
inputs = [(rng.standard_normal(vocab) * rng.uniform(0.5, 3.0)).astype(np.float32) for _ in range(25)]
ctrl = Controller(ControllerConfig(vocab_size=vocab))
for t in range(10):
    ctrl.process_step(t, inputs[t])
def process_cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime
# An OpenBLAS worker spins for a while after it starts, at import. Wait
# until it is idle: the process gains no CPU time while this thread sleeps.
for _ in range(50):
    idle = process_cpu()
    time.sleep(0.1)
    if process_cpu() - idle < 0.005:
        break
process0, thread0 = process_cpu(), time.thread_time()
for t in range(10, 210):
    ctrl.process_step(t, inputs[t % len(inputs)])
print(process_cpu() - process0, time.thread_time() - thread0)
"""


def test_a_step_runs_on_the_calling_thread_alone():
    # A whole-vector dot woke OpenBLAS worker threads, which spun after each
    # call: the process spent about twice this thread's CPU time. On a 1-core
    # runner OpenBLAS starts no worker, and this passes trivially.
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in pins}
    done = subprocess.run(
        [sys.executable, "-c", _CPU_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    process_s, thread_s = map(float, done.stdout.split())
    assert process_s <= 1.2 * thread_s, (process_s, thread_s)


class TestFiniteness:
    """A logit range over MAX_LOGIT_RANGE is rejected before the commit; within it
    and the RepairParams caps every directive and modified entropy is finite."""

    def test_range_over_the_bound_is_rejected_before_the_commit(self):
        # Accepted, this input reaches an aggressive step at t=41 whose
        # extrapolation overflows after the step has committed.
        config = {"vocab_size": 8, "detector": {"c_high": 2, "t_warm": 0}}
        ctrl = Controller(config_from_dict(config))
        for t in range(40):
            ctrl.process_step(t, np.array([9.0] + [0.0] * 7))
        with pytest.raises(ValueError):
            ctrl.process_step(40, np.array([0.0] * 7 + [-1e308]))
        assert ctrl._next_t == 40
        modes = [ctrl.process_step(t, np.array([0.0] * 7 + [-9.9e99]))[1].mode for t in (40, 41)]
        assert modes == [Mode.NONE, Mode.AGGRESSIVE]

    def test_gains_over_the_cap_are_config_errors(self):
        for key in ("lambda_max", "eta", "rho"):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({"vocab_size": 8, "repair": {key: MAX_GAIN * 10}})

    def test_widest_inputs_at_the_caps_stay_finite(self):
        # pytest turns numpy's overflow warnings into errors here, so an
        # overflow anywhere in the step fails the test.
        gain = MAX_GAIN
        config = replace(PROP_CONFIG, repair=RepairParams(lambda_max=gain, eta=gain, rho=gain))

        def widest(z):
            # The lowest logit moves to the bound; the entropy barely moves.
            return None if z is None else _with(z, int(np.argmin(z)), z.max() - 9.9e99)

        kinds = set()
        for seed in range(5):
            ctrl = Controller(config)
            for t, step in enumerate(random_stream(seed, 60)):
                if step.notify:
                    ctrl.notify_sampled(step.token_id, step.token_text)
                wide = replace(step, z=widest(step.z), ref=widest(step.ref))
                directive, event = process(ctrl, t, wide)
                kinds.add(event.mode)
                assert np.all(np.isfinite(directive.logits))
                assert event.modified_entropy is None or math.isfinite(event.modified_entropy)
        assert kinds == set(Mode)
