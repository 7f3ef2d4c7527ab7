"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a [PASS] line when its criterion holds (visible with
pytest -s / in captured output); a failed assertion means the criterion
does not hold.
"""

import json
import subprocess
import sys
import time
from importlib import resources

import numpy as np
import pytest

from spreg.config import load_config_dict
from spreg.controller import ControllerConfig, Mode
from spreg.detector import DecisionKind, DetectorConfig, is_spike
from spreg.distributions import log_softmax, shannon_entropy
from spreg.harness import Scenario, StableRegime, SpikeInjection, evaluate, generate
from spreg.monitor import entropy_gradient
from spreg.plan_tracker import GuidanceTable, PatternSet, PlanTracker, StepType
from spreg.repair import (
    RepairParams,
    adaptive_scale,
    guided_logits,
    repetition_penalty,
    token_weights,
)
from spreg.trace_io import write_events

from _oracles import (
    naive_cfg,
    naive_entropy,
    naive_entropy_f64,
    naive_slope,
    oracle_decisions,
    random_h_seq,
)
from _replay import replay_records, write_trace
from test_detector import run_machine

PARAMS = RepairParams()
TABLE = GuidanceTable()


def report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number:02d}: {text}")


def test_01_entropy_oracle():
    rng = np.random.default_rng(101)
    # This thread's CPU time: a neighbour holding the core does not count
    # against the bound, and neither do BLAS worker threads spinning.
    start = time.thread_time()
    for size in (2, 16, 1024, 65536):
        for _ in range(1000):
            z = rng.standard_normal(size) * rng.uniform(0.25, 5.0)
            h = shannon_entropy(z)
            ref = naive_entropy_f64(z)
            assert abs(h - ref) <= 1e-9 * max(abs(ref), 1e-12)
    # Extended-precision cross-check at the sizes where it is affordable.
    for size in (2, 16, 1024):
        for _ in range(200):
            z = rng.standard_normal(size) * rng.uniform(0.25, 5.0)
            h = shannon_entropy(z)
            ref = naive_entropy(z)
            assert abs(h - ref) <= 1e-9 * max(abs(ref), 1e-12)
    elapsed = time.thread_time() - start
    assert elapsed < 10.0, f"entropy oracle sweep took {elapsed:.1f}s"
    report(1, f"entropy matches naive two-pass oracle at 1e-9 rel ({elapsed:.1f}s)")


def test_02_gradient_oracle():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        values = rng.uniform(0.0, 4.0, 5)
        assert abs(entropy_gradient(values) - naive_slope(values)) <= 1e-12
    # Exactly representable linear series reproduce the common difference.
    for start, diff in ((1.0, 0.25), (0.5, -0.5), (2.0, 0.125)):
        series = [start + diff * i for i in range(5)]
        assert entropy_gradient(series) == diff
    assert entropy_gradient([1.0, 1.3, 1.6, 1.9, 2.2]) == pytest.approx(0.3, abs=1e-12)
    report(2, "gradient equals closed-form least-squares slope (1e-12)")


def test_03_spike_truth_table():
    cfg = DetectorConfig()
    assert is_spike(2.5, 2.0, 0.2, cfg) is True
    assert is_spike(2.25, 2.0, 0.2, cfg) is False
    assert is_spike(1.0, 0.5, 0.1, cfg) is False
    rng = np.random.default_rng(303)
    for _ in range(10_000):
        h = float(rng.uniform(0, 6))
        mu = float(rng.uniform(0, 4))
        sigma = float(rng.uniform(0, 1.5))
        expected = h > mu + cfg.alpha * sigma and h >= cfg.h_min
        assert is_spike(h, mu, sigma, cfg) is expected
    report(3, "dual-threshold truth table and 10k-triple fuzz")


def test_04_guidance_identities():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        size = int(rng.integers(2, 48))
        cond = rng.standard_normal(size) * rng.uniform(0.5, 4)
        ref = log_softmax(rng.standard_normal(size) * rng.uniform(0.5, 4))
        assert log_softmax(guided_logits(cond, ref, 1.0)) == pytest.approx(
            log_softmax(cond), abs=1e-9
        )
        assert log_softmax(guided_logits(cond, ref, 0.0)) == pytest.approx(ref, abs=1e-9)
        gamma = float(rng.uniform(1.0, 4.0))
        uncond = rng.standard_normal(size)
        assert log_softmax(naive_cfg(cond, uncond, gamma)) == pytest.approx(
            log_softmax(guided_logits(cond, log_softmax(uncond), gamma)), abs=1e-9
        )
    report(4, "scale-1/scale-0 identities and fixed-scale equivalence (1k pairs)")


def test_05_adaptive_scale_properties():
    # Decay ratio is exact where the clamp does not bind.
    wide = RepairParams(lambda_max=64.0)
    lam0 = adaptive_scale(22.0, 2.0, StepType.ACTION, 0, TABLE, wide)
    for r in range(1, 9):
        lam_r = adaptive_scale(22.0, 2.0, StepType.ACTION, r, TABLE, wide)
        assert 1.0 < lam_r < wide.lambda_max
        assert lam_r == lam0 / (1 + r)
    # Monotone non-decreasing in entropy until the cap binds, then flat.
    values = [
        adaptive_scale(h, 2.0, StepType.REASONING, 0, TABLE, PARAMS)
        for h in np.linspace(0, 14, 400)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == PARAMS.lambda_max
    # Worked example: 1.5 * (1 + 0.5 * (3 - 2) / (2 + 1e-6)), 1.875 up to the guard.
    lam = adaptive_scale(3.0, 2.0, StepType.REASONING, 0, TABLE, PARAMS)
    assert lam == pytest.approx(1.5 * (1.0 + 0.5 * 1.0 / (2.0 + 1e-6)), abs=1e-12)
    assert lam == pytest.approx(1.875, abs=1e-6)
    report(5, "decay ratio exact, entropy-monotone to the cap, 1.875 worked example")


def test_06_token_weight_centering():
    rng = np.random.default_rng(606)
    for _ in range(1000):
        size = int(rng.integers(2, 128))
        ref = rng.standard_normal(size) * rng.uniform(0.1, 10) + rng.uniform(-20, 20)
        h_norm = float(rng.uniform(0, 1))
        w = token_weights(ref, h_norm, PARAMS)
        assert float(np.mean(w)) == pytest.approx(1.0, abs=1e-9)
    w = token_weights(rng.standard_normal(32), 0.8, RepairParams(eta=0.0))
    assert np.all(w == 1.0)
    report(6, "token weights center on 1 (1k references); eta=0 gives all ones")


def test_07_repetition_penalty_contract():
    out = repetition_penalty([2.6, -1.0, 0.7], {0, 1}, rho=1.3)
    assert out[0] == 2.0 and out[1] == -1.3 and out[2] == 0.7
    rng = np.random.default_rng(707)
    for _ in range(300):
        z = rng.standard_normal(64) * 3
        recent = set(map(int, rng.integers(0, 64, size=12)))
        penalized = repetition_penalty(z, recent, rho=1.3)
        assert np.all(np.sign(penalized) == np.sign(z))
        untouched = [v for v in range(64) if v not in recent]
        assert np.array_equal(penalized[untouched], z[untouched])
    report(7, "penalty branches (2.6->2.0, -1.0->-1.3), signs and untouched tokens")


def test_08_state_machine_suite():
    cfg = DetectorConfig()
    # Constructed: spike conditions during warmup never trigger.
    warm = run_machine([1.0, 5.0, 5.0, 5.0, 5.0, 5.0], cfg)
    assert all(d.kind is DecisionKind.NO_ACTION for _, d in warm[:5])
    # Constructed: second spike 10 steps after the first dies in cooldown.
    h = [1.0] * 20 + [3.0] + [1.0] * 9 + [3.0] + [1.0] * 40
    kinds = [d.kind for _, d in run_machine(h, cfg)]
    assert kinds.count(DecisionKind.TRIGGER_REPAIR) == 1
    # Constructed: aggressive fires at exactly the 50th above-mean step.
    ramp = [0.5 + 0.01 * i for i in range(80)]
    aggressive = [
        t
        for t, (_, d) in enumerate(run_machine(ramp, cfg))
        if d.kind is DecisionKind.AGGRESSIVE_RECOVER
    ]
    assert aggressive[0] == 50

    rng = np.random.default_rng(808)
    triggers_seen = 0
    aggressive_seen = 0
    for _ in range(10_000):
        seq = random_h_seq(rng)
        got = [
            {
                "phase": phase.value,
                "kind": decision.kind.value,
                "duration": decision.duration,
                "repair_index": decision.repair_index,
            }
            for phase, decision in run_machine(seq, cfg)
        ]
        assert got == oracle_decisions(seq, cfg)
        triggers = [
            (t, s["duration"]) for t, s in enumerate(got) if s["kind"] == "trigger_repair"
        ]
        triggers_seen += len(triggers)
        aggressive_seen += sum(1 for s in got if s["kind"] == "aggressive_recover")
        assert all(t >= cfg.t_warm for t, _ in triggers)
        assert all(d in (1, 2, 3) for _, d in triggers)
        for (t1, d1), (t2, _) in zip(triggers, triggers[1:]):
            assert t2 - t1 >= d1 + cfg.t_cool
    assert triggers_seen > 100  # the fuzz actually exercised the trigger path
    report(
        8,
        f"state machine matches brute-force oracle on 10k sequences "
        f"({triggers_seen} triggers, {aggressive_seen} aggressive)",
    )


def test_09_fig1_like_end_to_end(tmp_path):
    start = time.thread_time()  # CPU time of this thread, as in test_01
    scenario = Scenario.builtin("fig1-like")
    config = ControllerConfig(vocab_size=scenario.vocab_size)

    def run_once():
        records, truth = generate(scenario, detector=config.detector)
        _, events, summary = replay_records(config, records)
        return events, truth, summary

    events_a, truth, _ = run_once()
    events_b, _, _ = run_once()
    metrics = evaluate(events_a, truth, tolerance_steps=2)
    assert metrics.recall == 1.0
    assert metrics.precision == 1.0
    assert metrics.injections == 3
    log_a, log_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_events(events_a, log_a)
    write_events(events_b, log_b)
    assert log_a.read_bytes() == log_b.read_bytes()
    elapsed = time.thread_time() - start
    assert elapsed < 5.0, f"fig1-like end-to-end took {elapsed:.1f}s"
    report(9, f"fig1-like: precision=recall=1.0, byte-identical replays ({elapsed:.2f}s)")


def test_10_loop50_aggressive_recovery():
    scenario = Scenario.builtin("loop50")
    config = ControllerConfig(vocab_size=scenario.vocab_size)
    records, truth = generate(scenario, detector=config.detector)
    records = list(records)
    directives, events, summary = replay_records(config, records)
    hits = [(e, d) for e, d in zip(events, directives) if e.mode is Mode.AGGRESSIVE]
    assert summary.aggressive_recoveries == 1
    assert len(hits) == 1
    event, directive = hits[0]
    assert directive.temperature_override == 0.3
    span = truth.loop_spans[0]
    assert span[0] <= event.t < span[1]
    looped = int(np.argmax(records[event.t].logits))
    pre = np.exp(log_softmax(records[event.t].logits))[looped]
    post = np.exp(log_softmax(directive.logits))[looped]
    assert post < pre
    report(
        10,
        f"loop50: one aggressive step (t={event.t}), temperature 0.3, "
        f"looped-token p {pre:.3f}->{post:.4f}",
    )


def test_11_wire_offline_equivalence(tmp_path):
    scenario = Scenario(
        vocab_size=32,
        length=500,
        seed=77,
        segments=(
            StableRegime(steps=500, target_entropy=1.0, jitter=0.05),
            SpikeInjection(at_step=120, magnitude=3.0),
            SpikeInjection(at_step=300, magnitude=3.0),
        ),
    )
    config_payload = load_config_dict(resources.files("spreg") / "data" / "config.default.json")
    records, _ = generate(scenario)
    trace_path = tmp_path / "stream.jsonl"
    write_trace(records, trace_path)

    events_path = tmp_path / "replay-events.jsonl"
    replay = subprocess.run(
        [
            sys.executable,
            "-m",
            "spreg",
            "replay",
            "--trace",
            str(trace_path),
            "--events",
            str(events_path),
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(replay.stdout)["summary"]["total_steps"] == 500

    requests = [json.dumps({"kind": "init", "vocab_size": 32, "config": config_payload})]
    with open(trace_path, encoding="utf-8") as fh:
        requests += [
            json.dumps({"kind": "step", "record": json.loads(line)}) for line in fh
        ]
    requests.append(json.dumps({"kind": "finish"}))
    serve = subprocess.run(
        [sys.executable, "-m", "spreg", "serve", "--stdio"],
        input="\n".join(requests) + "\n",
        capture_output=True,
        text=True,
        check=True,
    )
    responses = [json.loads(line) for line in serve.stdout.splitlines()]
    assert responses[0] == {"kind": "ready"}
    directives = [r for r in responses if r.get("kind") == "directive"]
    assert len(directives) == 500
    for d in directives:
        if not d["intervened"]:
            assert "logits" not in d

    wire_events = [
        json.dumps(d["event"], separators=(",", ":")) for d in directives
    ]
    offline_events = events_path.read_text().splitlines()
    assert wire_events == offline_events
    report(11, "500-step trace: serve --stdio event log identical to replay; lean passthrough")


def test_12_plan_tracker_acceptance():
    patterns = PatternSet.default()
    cases = {
        "Step 1: Let me think about the divisors": StepType.REASONING,
        "Action: invoking the search Tool now": StepType.ACTION,
        "Result => 42": StepType.OBSERVATION,
        "Therefore, the final answer is 7": StepType.CONCLUSION,
    }
    for text, expected in cases.items():
        tracker = PlanTracker(patterns)
        tracker.ingest(text)
        assert tracker.classify() is expected

    pool = [
        "There", "fore", " Let ", "me", "Result", "=>", "``", "`", "def ",
        "Thus ", "tool", "...", "x9", " ", "12", "obs", "ervation",
        "final ", "answer is", "→", "import ", "zq", "Step 3",
    ]
    rng = np.random.default_rng(1212)
    for _ in range(1000):
        tokens = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, 90))]
        incremental = PlanTracker(patterns)
        for tok in tokens:
            incremental.ingest(tok)
        batch = PlanTracker(patterns)
        batch.ingest("".join(tokens))
        assert incremental.classify() is batch.classify()
    report(12, "reference strings classify correctly; incremental == batch on 1k streams")
