import json
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from spreg.controller import ControllerConfig
from spreg.detector import DetectorConfig
from spreg.distributions import shannon_entropy
from spreg.errors import ConfigError
from spreg.harness import (
    BUILTIN_SCENARIOS,
    DriftRegime,
    GroundTruth,
    LoopRegime,
    Scenario,
    SpikeInjection,
    StableRegime,
    evaluate,
    generate,
)

from _replay import replay_records


def stable_scenario(**kwargs) -> Scenario:
    defaults = dict(
        vocab_size=32,
        length=100,
        seed=5,
        segments=(StableRegime(steps=100, target_entropy=1.0, jitter=0.05),),
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestScenarioValidation:
    def test_segments_must_cover_length(self):
        with pytest.raises(ConfigError):
            stable_scenario(segments=(StableRegime(steps=60, target_entropy=1.0),))

    def test_spike_must_land_inside(self):
        with pytest.raises(ConfigError):
            stable_scenario(
                segments=(
                    StableRegime(steps=100, target_entropy=1.0),
                    SpikeInjection(at_step=100, magnitude=3.0),
                )
            )

    def test_tokens_must_be_in_vocab(self):
        with pytest.raises(ConfigError):
            Scenario(
                vocab_size=8,
                length=10,
                seed=0,
                segments=(
                    LoopRegime(steps=10, tokens=(1, 9), start_entropy=0.9),
                ),
            )

    def test_vocab_too_small(self):
        with pytest.raises(ConfigError):
            stable_scenario(vocab_size=1)

    def test_from_dict_round_trip(self):
        payload = {
            "vocab_size": 16,
            "length": 5,
            "seed": 3,
            "segments": [
                {"kind": "stable", "steps": 3, "target_entropy": 1.2, "jitter": 0.1},
                {"kind": "drift", "steps": 2, "slope": 0.05},
                {"kind": "spike", "at_step": 4, "magnitude": 2.0},
            ],
        }
        sc = Scenario.from_dict(payload)
        assert sc.length == 5
        assert isinstance(sc.segments[2], SpikeInjection)

    @pytest.mark.parametrize(
        "change",
        [
            {"vocab_size": 64.9},
            {"vocab_size": "16"},
            {"length": 5.0},
            {"seed": True},
            {"seed": -1},
            {"segments": [{"kind": "stable", "steps": 5, "target_entropy": "1.2"}]},
            {"segments": [{"kind": "stable", "steps": 5.5, "target_entropy": 1.2}]},
            {"segments": [{"kind": "stable", "steps": 5, "target_entropy": float("nan")}]},
            {"segments": [{"kind": "stable", "steps": 5, "target_entropy": 1.2, "anchors": [1.5]}]},
            {"segments": [5]},
            {"length": sys.maxsize + 1},
            {"segments": [[["kind", "stable"], ["steps", 5], ["target_entropy", 1.2]]]},
            {"segments": [{"kind": "stable", "steps": 5, "target_entropy": 1.2, "anchors": "1"}]},
        ],
    )
    def test_from_dict_rejects_wrong_types(self, change):
        payload = {
            "vocab_size": 16,
            "length": 5,
            "seed": 3,
            "segments": [{"kind": "stable", "steps": 5, "target_entropy": 1.2}],
        }
        assert Scenario.from_dict(payload).vocab_size == 16
        with pytest.raises(ConfigError):
            Scenario.from_dict({**payload, **change})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1], "scenario must be an object, got list"),
            ({"segments": [[["kind", "stable"]]]}, "segment must be an object, got list"),
            ({"segments": [5]}, "segment must be an object, got int"),
            ({"segments": 5}, "scenario.segments must be a list, got 5"),
            ({"segments": {"kind": "stable"}}, "scenario.segments must be a list, got {"),
        ],
    )
    def test_from_dict_names_a_scenario_or_segment_of_the_wrong_type(self, payload, message):
        with pytest.raises(ConfigError, match="^bad scenario: " + re.escape(message)):
            Scenario.from_dict(payload)

    @pytest.mark.parametrize(
        "segment, key",
        [
            ({"kind": "loop", "tokens": [3, 4], "start_entropy": 0.9, "period": 2}, "period"),
            ({"kind": "stable", "target_entropy": 1.2, "slope": 0.1}, "slope"),
            ({"kind": "drift", "slope": 0.1, "start_entropy": 1.0, "jiter": 0.1}, "jiter"),
        ],
    )
    def test_from_dict_rejects_unknown_segment_keys(self, segment, key):
        def payload(seg: dict) -> dict:
            return {"vocab_size": 16, "length": 5, "segments": [{"steps": 5, **seg}]}

        with pytest.raises(ConfigError, match=f"unknown {segment['kind']} segment keys: {key}"):
            Scenario.from_dict(payload(segment))
        valid = {k: v for k, v in segment.items() if k != key}
        assert Scenario.from_dict(payload(valid)).length == 5

    def test_opening_drift_needs_start_entropy(self, tmp_path):
        drift = {"kind": "drift", "steps": 10, "slope": 0.1}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps({"vocab_size": 16, "length": 10, "segments": [drift]}))
        with pytest.raises(ConfigError, match="drift segment needs start_entropy"):
            Scenario.from_file(path)
        stable = {"kind": "stable", "steps": 5, "target_entropy": 1.0}
        after_stable = {"vocab_size": 16, "length": 15, "segments": [stable, drift]}
        assert Scenario.from_dict(after_stable).length == 15

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"length": 0, "segments": ()}, "length must be >= 1, got 0"),
            (
                {"segments": (StableRegime(100, 1.0), SpikeInjection(98, 3.0, width=3))},
                "spike overlay extends past the scenario length",
            ),
            (
                {"segments": (StableRegime(100, 1.0), SpikeInjection(5, 0.0))},
                "spike needs magnitude > 0 and width >= 1",
            ),
            (
                {"segments": (StableRegime(100, 1.0), SpikeInjection(5, 3.0, width=0))},
                "spike needs magnitude > 0 and width >= 1",
            ),
            (
                {"segments": (StableRegime(0, 1.0), StableRegime(100, 1.0))},
                "segment steps must be >= 1, got 0",
            ),
            (
                {"segments": (LoopRegime(100, (1, 2), start_entropy=0.0),)},
                "loop start_entropy must be > 0",
            ),
            (
                {"segments": (StableRegime(100, 0.0),)},
                "stable regime needs target_entropy > 0 and jitter >= 0",
            ),
            (
                {"segments": (StableRegime(100, 1.0, jitter=-0.1),)},
                "stable regime needs target_entropy > 0 and jitter >= 0",
            ),
        ],
    )
    def test_value_rules(self, change, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            stable_scenario(**change)

    def test_loop_needs_a_token(self):
        with pytest.raises(ConfigError):
            Scenario(
                vocab_size=8,
                length=10,
                seed=0,
                segments=(LoopRegime(steps=10, tokens=(), start_entropy=0.9),),
            )

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict(
                {"vocab_size": 8, "length": 1, "segments": [{"kind": "wat", "steps": 1}]}
            )

    def test_builtins_load(self):
        for name in BUILTIN_SCENARIOS:
            sc = Scenario.builtin(name)
            assert sc.length > 0
        with pytest.raises(ConfigError):
            Scenario.builtin("nonesuch")


class TestGenerator:
    def test_deterministic_given_seed(self):
        sc = stable_scenario()
        a, b = list(generate(sc)[0]), list(generate(sc)[0])
        assert len(a) == len(b) == 100
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.logits, rb.logits)
            assert ra.token_id == rb.token_id

    def test_seed_override_changes_stream(self):
        sc = stable_scenario()
        a, _ = generate(sc)
        b, _ = generate(replace(sc, seed=99))
        assert any(not np.array_equal(ra.logits, rb.logits) for ra, rb in zip(a, b))

    @pytest.mark.parametrize("spikes", [(), (SpikeInjection(at_step=19, magnitude=3.0),)])
    def test_drift_continues_from_the_base_target(self, spikes):
        # A spike overlays the stable regime; the drift after it starts one
        # slope above the stable target either way.
        sc = stable_scenario(
            length=30,
            segments=(
                StableRegime(steps=20, target_entropy=1.0),
                DriftRegime(steps=10, slope=0.01),
                *spikes,
            ),
        )
        entropies = [shannon_entropy(r.logits) for r in generate(sc)[0]]
        assert entropies[20:] == pytest.approx([1.0 + 0.01 * i for i in range(1, 11)], abs=1e-4)

    @pytest.mark.parametrize("vocab", [64, 1024])
    def test_an_opening_drift_starts_at_its_start_entropy(self, vocab):
        drift = DriftRegime(steps=20, slope=0.02, start_entropy=1.0)
        sc = stable_scenario(vocab_size=vocab, length=20, segments=(drift,))
        entropies = [shannon_entropy(r.logits) for r in generate(sc)[0]]
        assert entropies == pytest.approx([1.0 + 0.02 * i for i in range(20)], abs=1e-5)

    def test_stable_entropies_within_jitter(self):
        records, _ = generate(stable_scenario())
        for rec in records:
            assert 0.95 <= shannon_entropy(rec.logits) <= 1.05

    def test_spike_raises_entropy_above_floor_and_local_stats(self):
        det = DetectorConfig()
        sc = stable_scenario(
            segments=(
                StableRegime(steps=100, target_entropy=1.0, jitter=0.05),
                SpikeInjection(at_step=50, magnitude=3.0),
            )
        )
        records, truth = generate(sc, detector=det)
        records = list(records)
        assert truth.injected_spike_steps == (50,)
        entropies = [shannon_entropy(r.logits) for r in records]
        local = entropies[40:50]
        mu, sigma = float(np.mean(local)), float(np.std(local))
        assert entropies[50] >= mu + 3.0 * sigma
        assert entropies[50] >= det.h_min

    def test_spike_preserves_argmax(self):
        sc = stable_scenario(
            segments=(
                StableRegime(steps=100, target_entropy=1.0, jitter=0.0, anchors=(7,)),
                SpikeInjection(at_step=50, magnitude=3.0),
            )
        )
        records = list(generate(sc)[0])
        assert int(np.argmax(records[50].logits)) == 7

    def test_loop_cycles_argmax_tokens(self):
        sc = Scenario(
            vocab_size=16,
            length=20,
            seed=4,
            segments=(
                LoopRegime(steps=20, tokens=(3, 4), start_entropy=0.9, slope=0.01),
            ),
        )
        records, truth = generate(sc)
        records = list(records)
        assert truth.loop_spans == ((0, 20),)
        tops = [int(np.argmax(r.logits)) for r in records]
        assert tops == [3, 4] * 10
        # The sampled token reported at t is the argmax of step t-1.
        assert records[0].token_id is None
        assert [r.token_id for r in records[1:]] == tops[:-1]

    def test_unreachable_entropy_target_rejected(self):
        sc = Scenario(
            vocab_size=4,
            length=10,
            seed=0,
            segments=(StableRegime(steps=10, target_entropy=3.0),),  # > ln 4
        )
        with pytest.raises(ConfigError):
            list(generate(sc)[0])

    def test_logits_are_float32(self):
        records, _ = generate(stable_scenario())
        assert all(r.logits.dtype == np.float32 for r in records)


class TestEvaluate:
    def run_events(self, scenario):
        config = ControllerConfig(vocab_size=scenario.vocab_size)
        records, truth = generate(scenario, detector=config.detector)
        _, events, _ = replay_records(config, records)
        return events, truth

    def test_perfect_detection(self):
        sc = stable_scenario(
            segments=(
                StableRegime(steps=100, target_entropy=1.0, jitter=0.05),
                SpikeInjection(at_step=30, magnitude=3.0),
                SpikeInjection(at_step=70, magnitude=3.0),
            )
        )
        events, truth = self.run_events(sc)
        metrics = evaluate(events, truth)
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0
        assert metrics.detections == metrics.injections == 2

    def test_vacuous_case(self):
        events, truth = self.run_events(stable_scenario())
        metrics = evaluate(events, truth)
        assert metrics.detections == 0 and metrics.injections == 0
        assert metrics.precision == 1.0 and metrics.recall == 1.0

    def test_cooldown_suppression_counts_against_recall(self):
        # Second injection lands 10 steps after the first: inside cooldown.
        sc = stable_scenario(
            segments=(
                StableRegime(steps=100, target_entropy=1.0, jitter=0.05),
                SpikeInjection(at_step=30, magnitude=3.0),
                SpikeInjection(at_step=40, magnitude=3.0),
            )
        )
        events, truth = self.run_events(sc)
        metrics = evaluate(events, truth)
        assert metrics.detections == 1
        assert metrics.precision == 1.0
        assert metrics.recall == 0.5

    def test_hand_counted_partial_match(self):
        truth = GroundTruth(injected_spike_steps=(10, 40, 70))
        events, _ = self.run_events(stable_scenario())
        # Graft synthetic detections onto a quiet run: two true, one false.
        from dataclasses import replace

        doctored = list(events)
        for t in (11, 40, 55):
            doctored[t] = replace(doctored[t], spike=True)
        metrics = evaluate(doctored, truth, tolerance_steps=2)
        assert metrics.matched == 2
        assert metrics.precision == pytest.approx(2 / 3)
        assert metrics.recall == pytest.approx(2 / 3)

    def test_truth_beyond_events_rejected(self):
        events, _ = self.run_events(stable_scenario())
        with pytest.raises(ValueError):
            evaluate(events, GroundTruth(injected_spike_steps=(500,)))
        with pytest.raises(ValueError):
            evaluate([], GroundTruth())
