import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreg.cli import main
from spreg.config import config_from_dict, load_config_dict
from spreg.controller import ControllerConfig, Mode
from spreg.errors import ConfigError, TraceFormatError
from spreg.harness import Scenario, StableRegime, SpikeInjection, generate
from spreg.trace_io import (
    TraceRecord,
    _f32_json,
    export_csv,
    read_events,
    replay_trace,
    serve_stdio,
    write_events,
)

from _replay import read_trace, replay_records, write_trace

VOCAB = 24  # keeps spike entropy targets well under ln(vocab)


def random_records(n: int, seed: int = 0, vocab: int = VOCAB) -> list[TraceRecord]:
    rng = np.random.default_rng(seed)
    records = []
    for t in range(n):
        records.append(
            TraceRecord(
                t=t,
                logits=rng.standard_normal(vocab).astype(np.float32),
                ref_logits=rng.standard_normal(vocab).astype(np.float32)
                if t % 3 == 0
                else None,
                token_id=None if t == 0 else int(rng.integers(vocab)),
                token_text=None if t == 0 else "x",
            )
        )
    return records


class TestTraceRoundTrip:
    def test_round_trip_is_bit_identical(self, tmp_path):
        records = random_records(1000)
        path = tmp_path / "trace.jsonl"
        assert write_trace(records, path) == 1000
        loaded = read_trace(path)
        assert len(loaded) == 1000
        for a, b in zip(records, loaded):
            assert a.t == b.t
            assert np.array_equal(a.logits, b.logits)
            assert a.logits.dtype == b.logits.dtype == np.float32
            if a.ref_logits is None:
                assert b.ref_logits is None
            else:
                assert np.array_equal(a.ref_logits, b.ref_logits)
            assert a.token_id == b.token_id
            assert a.token_text == b.token_text

    def test_truncated_line_names_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(random_records(3), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"t": 3, "logits": [0.1,')
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.line == 4
        assert "line 4" in str(err.value)

    def test_read_trace_only_parses(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bad = {"t": -1, "logits": [float("nan"), 1.0], "ref_logits": [1.0], "token_text": 5}
        path.write_text(json.dumps(bad) + "\n")
        [rec] = read_trace(path)
        assert rec.t == -1 and rec.token_text == 5 and rec.logits.dtype == np.float32
        assert np.isnan(rec.logits[0]) and rec.ref_logits.shape == (1,)


F32_MAX_BITS = int(np.array(np.finfo(np.float32).max).view(np.uint32))
# float32 bit patterns that are neither NaN nor infinite.
finite_f32_bits = st.integers(0, 2**32 - 1).filter(lambda b: b & 0x7F800000 != 0x7F800000)
F32_EDGE_BITS = [
    0x80000000,  # -0.0
    0x00000000,
    0x00000001,  # the smallest subnormal
    0x80000001,
    F32_MAX_BITS,
    F32_MAX_BITS | 0x80000000,
] + [
    # Integers written without an exponent, then values 8 digits cannot identify.
    int(np.array(v, np.float32).view(np.uint32))
    for v in (1e8, 123456789, 999999936, -5e8, -120.805145, 106875.805, 1.03491494e-26)
]


def significant_digits(number: str) -> int:
    mantissa = number.lstrip("-").split("e")[0].replace(".", "")
    return len(mantissa.lstrip("0")) or 1


class TestF32Codec:
    """``_f32_json`` writes text that strict JSON reads back to the same float32 bits."""

    @staticmethod
    def check_round_trip(bits: list[int]):
        values = np.array(bits, dtype=np.uint32).view(np.float32)
        text = _f32_json(values)
        assert all(significant_digits(number) <= 9 for number in text[1:-1].split(","))
        back = np.asarray(parse_response(text), dtype=np.float32)
        assert np.array_equal(back.view(np.uint32), values.view(np.uint32))

    def test_edge_values(self):
        self.check_round_trip(F32_EDGE_BITS)
        assert _f32_json(np.array([-0.0, 0.0], np.float32)) == "[-0.0,0]"

    @given(st.lists(finite_f32_bits, min_size=1, max_size=40))
    @settings(max_examples=500)
    def test_any_finite_float32_round_trips(self, bits):
        self.check_round_trip(bits)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            _f32_json(np.array([0.0, bad], np.float32))


# Each turns line 5 (step 4) of a valid trace into a step the controller rejects.
BAD_REPLAY_LINES = {
    "step_jump": lambda d: {**d, "t": 5},
    "vocab_change": lambda d: {**d, "logits": d["logits"][:-1]},
    "negative_t": lambda d: {**d, "t": -1},
    "inf_logit": lambda d: {**d, "logits": [float("inf")] + d["logits"][1:]},
    "nan_logit": lambda d: {**d, "logits": [float("nan")] + d["logits"][1:]},
    "ref_logits_wrong_length": lambda d: {**d, "ref_logits": d["logits"] + [0.0]},
    "fractional_t": lambda d: {**d, "t": 2.5},
    "fractional_token_id": lambda d: {**d, "token_id": 2.7},
    "token_text_not_a_string": lambda d: {**d, "token_text": 5},
    "unknown_record_key": lambda d: {**d, "tokenid": 3},
}


class TestReplayTrace:
    def test_matches_replay_of_read_trace(self, tmp_path):
        sc = Scenario(
            vocab_size=VOCAB,
            length=80,
            seed=4,
            segments=(
                StableRegime(steps=80, target_entropy=1.0, jitter=0.05),
                SpikeInjection(at_step=30, magnitude=3.0),
            ),
        )
        records = list(generate(sc)[0])
        records[10] = TraceRecord(
            t=10, logits=records[10].logits, ref_logits=records[20].logits, token_id=3
        )
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        config = {"detector": {"t_warm": 5}}
        events, summary = replay_trace(path, config)
        _, expected, expected_summary = replay_records(
            config_from_dict(config, vocab_size=VOCAB), read_trace(path)
        )
        assert events == expected and summary == expected_summary
        assert summary.repair_steps > 0

    @pytest.mark.parametrize("make_bad", BAD_REPLAY_LINES.values(), ids=BAD_REPLAY_LINES.keys())
    def test_bad_step_names_its_line(self, tmp_path, capsys, make_bad):
        lines = [json.loads(r.to_json()) for r in random_records(8)]
        lines[4] = make_bad(lines[4])
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in lines))
        with pytest.raises(TraceFormatError) as err:
            replay_trace(path, {})
        assert err.value.line == 5
        assert main(["replay", "--trace", str(path)]) == 3
        assert capsys.readouterr().err.startswith("spreg: line 5: ")

    def test_empty_trace(self):
        with pytest.raises(TraceFormatError, match="trace is empty"):
            replay_trace(io.StringIO("\n"), {})

    def test_peak_memory_does_not_grow_with_trace_length(self, tmp_path):
        vocab = 1024
        rng = np.random.default_rng(0)
        logits = [rng.standard_normal(vocab).astype(np.float32) for _ in range(8)]

        def peak_bytes(steps: int) -> int:
            path = tmp_path / f"trace{steps}.jsonl"
            write_trace((TraceRecord(t=t, logits=logits[t % 8]) for t in range(steps)), path)
            tracemalloc.start()
            try:
                replay_trace(path, {})
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak_bytes(50), peak_bytes(400)
        # Keeping each float32 record and float64 directive would add 350 * 12 KiB.
        assert long - short < 1 << 20, (short, long)


class TestEventsRoundTrip:
    def test_events_jsonl_round_trip(self, tmp_path):
        sc = Scenario(
            vocab_size=VOCAB,
            length=60,
            seed=2,
            segments=(
                StableRegime(steps=60, target_entropy=1.0, jitter=0.05),
                SpikeInjection(at_step=30, magnitude=3.0),
            ),
        )
        records, _ = generate(sc)
        _, events, _ = replay_records(ControllerConfig(vocab_size=VOCAB), records)
        path = tmp_path / "events.jsonl"
        write_events(events, path)
        assert read_events(path) == events


class TestCsvExport:
    def make_events(self):
        sc = Scenario(
            vocab_size=VOCAB,
            length=50,
            seed=9,
            segments=(
                StableRegime(steps=50, target_entropy=1.0, jitter=0.05),
                SpikeInjection(at_step=25, magnitude=3.0),
            ),
        )
        records, _ = generate(sc)
        _, events, _ = replay_records(ControllerConfig(vocab_size=VOCAB), records)
        return events

    def test_header_and_row_count(self):
        events = self.make_events()
        buf = io.StringIO()
        assert export_csv(events, buf) == 50
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,H,mu,sigma,gradient,phase,step_type,spike,lambda,mode"
        assert len(lines) == 51

    def test_spike_row_carries_lambda(self):
        events = self.make_events()
        buf = io.StringIO()
        export_csv(events, buf)
        lines = buf.getvalue().splitlines()
        spike_rows = [l for l in lines[1:] if l.split(",")[7] == "true"]
        assert len(spike_rows) == 1
        cells = spike_rows[0].split(",")
        assert cells[9] == "repair"
        assert float(cells[8]) > 0

    def test_rows_match_events_within_rendering_precision(self):
        events = self.make_events()
        buf = io.StringIO()
        export_csv(events, buf)
        lines = buf.getvalue().splitlines()[1:]
        for event, line in zip(events, lines):
            cells = line.split(",")
            assert int(cells[0]) == event.t
            assert float(cells[1]) == pytest.approx(event.entropy, rel=1e-5)
            if event.mu is None:
                assert cells[2] == ""
            else:
                assert float(cells[2]) == pytest.approx(event.mu, rel=1e-5)
            assert cells[5] == event.phase.value
            assert cells[6] == event.step_type.value
            assert cells[7] == ("true" if event.spike else "false")
            assert cells[9] == event.mode.value


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def parse_response(line: str) -> dict:
    """Parse one response as strict RFC 8259 JSON, which has no NaN or Infinity."""
    return json.loads(line, parse_constant=_reject_constant)


def run_wire(requests: list[dict | str], config=None) -> list[dict]:
    """Serve ``requests`` (objects, or raw lines sent as given) in one session."""
    lines = (r if isinstance(r, str) else json.dumps(r) for r in requests)
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    assert serve_stdio(config, stdin=stdin, stdout=stdout) == 0
    return [parse_response(line) for line in stdout.getvalue().splitlines()]


def _pattern_config(action_entry) -> dict:
    patterns = {s: {"keywords": [s]} for s in ("reasoning", "observation", "conclusion")}
    return {"patterns": {**patterns, "action": action_entry}}


# Each is rejected at init with a ``config`` error.
BAD_CONFIGS = [
    {"detector": {"alpha": -1}},
    5,
    "abc",
    {"detector": {"window": 1.5}},
    {"detector": {"n_grad": 2.5}},
    {"detector": {"t_cool": True}},
    {"repair": {"pool_capacity": 2.5}},
    {"repair": {"recent_window": 2.5}},
    {"detector": {"window": 2**63}},
    {"detector": {"n_grad": 2**63}},
    {"repair": {"pool_capacity": 2**63}},
    {"repair": {"lambda_max": float("inf")}},
    {"guidance": {"lambda_base": 5}},
    {"guidance": {"lambda_base": {"action": float("inf")}}},
    _pattern_config(5),
    _pattern_config({"keywords": 5}),
    _pattern_config({"keywords": [5]}),
    {"detector_preset": "conservative"},
    {"vocab_size": "x"},  # replaced by init's vocab_size, but type-checked first
    # A frame never makes spreg open a file, not even the packaged pattern file.
    {"patterns": str(resources.files("spreg").joinpath("data").joinpath("patterns.json"))},
]


class TestWireProtocol:
    def test_happy_path(self):
        records = random_records(4, vocab=8)
        requests = [{"kind": "init", "vocab_size": 8}]
        requests += [{"kind": "step", "record": json.loads(r.to_json())} for r in records]
        requests.append({"kind": "finish"})
        responses = run_wire(requests)
        assert responses[0] == {"kind": "ready"}
        assert [r["kind"] for r in responses[1:5]] == ["directive"] * 4
        assert responses[5]["kind"] == "summary"
        assert responses[5]["total_steps"] == 4

    def test_step_before_init(self):
        responses = run_wire(
            [
                {"kind": "step", "record": {"t": 0, "logits": [0.0, 1.0]}},
                {"kind": "finish"},
            ]
        )
        assert responses[0]["kind"] == "error"
        assert responses[0]["code"] == "not_initialized"
        assert responses[1]["code"] == "not_initialized"

    def test_malformed_frame_skipped_session_continues(self):
        bad_text = {"t": 0, "logits": [0.0] * 4, "token_text": 5}
        stdin = io.StringIO(
            "not json at all\n"
            + json.dumps({"kind": "init", "vocab_size": 4})
            + "\n"
            + json.dumps({"kind": "step", "record": bad_text})
            + "\n"
            + json.dumps({"kind": "finish"})
            + "\n"
        )
        stdout = io.StringIO()
        serve_stdio(None, stdin=stdin, stdout=stdout)
        responses = [parse_response(l) for l in stdout.getvalue().splitlines()]
        assert responses[0]["kind"] == "error"
        assert responses[0]["code"] == "bad_frame"
        assert responses[1] == {"kind": "ready"}
        assert responses[2]["kind"] == "error"
        assert responses[2]["code"] == "bad_frame"
        assert responses[3]["kind"] == "summary"

    def test_a_line_that_is_not_an_object_gets_one_bad_frame(self):
        # A blank line gets no answer.
        lines = ["[1, 2]", '"init"', "null", "", "  "]
        responses = run_wire(lines + [{"kind": "init", "vocab_size": 4}, {"kind": "finish"}])
        error = {"kind": "error", "code": "bad_frame", "message": "frame must be a JSON object"}
        assert responses[:3] == [error] * 3
        assert responses[3] == {"kind": "ready"}
        assert (responses[4]["kind"], responses[4]["total_steps"]) == ("summary", 0)
        assert len(responses) == 5

    def test_unknown_kind_and_bad_step_order(self):
        records = random_records(2, vocab=8)
        responses = run_wire(
            [
                {"kind": "init", "vocab_size": 8},
                {"kind": "bogus"},
                {"kind": "step", "record": json.loads(records[1].to_json())},  # t=1 before t=0
                {"kind": "step", "record": json.loads(records[0].to_json())},
                {"kind": "finish"},
            ]
        )
        assert responses[1]["code"] == "bad_frame"
        assert responses[2]["code"] == "protocol"
        assert responses[3]["kind"] == "directive"
        assert responses[4]["kind"] == "summary"

    def test_inline_token_rules(self):
        first, second = (r.logits.tolist() for r in random_records(2, vocab=8))
        responses = run_wire(
            [
                {"kind": "init", "vocab_size": 8},
                _step_frame(0, first, token_id=3, token_text="hi"),  # no token precedes step 0
                _step_frame(0, first),
                _step_frame(1, second, token_id=3, token_text=5),
                _step_frame(1, second, token_id=3, token_text=0),
                _step_frame(1, second, token_id=3, token_text=[]),
                _step_frame(1, second, token_id=3, token_text="hi"),
                _sampled_frame(2),
                {"kind": "finish"},
            ]
        )
        assert responses[1]["code"] == "protocol"
        assert responses[2]["kind"] == "directive"
        assert [r["code"] for r in responses[3:6]] == ["bad_frame"] * 3
        assert (responses[6]["kind"], responses[6]["t"]) == ("directive", 1)
        assert responses[7] == {
            "kind": "error",
            "code": "bad_frame",
            "message": "unknown request kind 'sampled'",
        }
        assert (responses[8]["kind"], responses[8]["total_steps"]) == ("summary", 2)

    def test_init_config_applies(self):
        responses = run_wire(
            [
                {"kind": "init", "vocab_size": 8, "config": {"detector": {"t_warm": 0}}},
                {"kind": "step", "record": {"t": 0, "logits": [0.0] * 8}},
                {"kind": "finish"},
            ]
        )
        assert responses[0] == {"kind": "ready"}
        assert responses[1]["event"]["phase"] == "monitoring"

    def test_init_bad_config_reports_config_error(self):
        for config in BAD_CONFIGS:
            responses = run_wire([{"kind": "init", "vocab_size": 8, "config": config}])
            assert (responses[0]["kind"], responses[0]["code"]) == ("error", "config"), config

    def test_an_unallocatable_init_leaves_the_stream_running(self):
        records = random_records(3, vocab=8)
        responses = run_wire(
            [
                {"kind": "init", "vocab_size": 8},
                {"kind": "step", "record": json.loads(records[0].to_json())},
                {"kind": "init", "vocab_size": 10**15},  # beyond any address space
                {"kind": "step", "record": json.loads(records[1].to_json())},
                {"kind": "init", "vocab_size": 2**62},  # beyond numpy's largest array
                {"kind": "step", "record": json.loads(records[2].to_json())},
            ]
        )
        assert responses[0] == {"kind": "ready"}
        assert responses[1]["kind"] == "directive"
        for i, vocab in ((2, 10**15), (4, 2**62)):
            assert (responses[i]["kind"], responses[i]["code"]) == ("error", "config")
            assert responses[i]["message"].startswith(f"vocab_size {vocab} cannot be allocated: ")
            assert (responses[i + 1]["kind"], responses[i + 1]["t"]) == ("directive", i // 2)

    def test_served_pattern_file_is_read_once(self, tmp_path):
        # Keywords the packaged patterns do not know, so the step type shows they apply.
        patterns = tmp_path / "p.json"
        step_types = ("reasoning", "action", "observation", "conclusion")
        patterns.write_text(json.dumps({s: {"keywords": ["zz" + s]} for s in step_types}))
        (tmp_path / "cfg.json").write_text(json.dumps({"patterns": "p.json"}))
        init = json.dumps({"kind": "init", "vocab_size": 8})

        def stdin():
            yield init
            patterns.unlink()
            yield init
            yield json.dumps(_step_frame(0, [0.0] * 8))
            yield json.dumps(_step_frame(1, [0.0] * 8, token_id=1, token_text="zzaction"))

        stdout = io.StringIO()
        assert serve_stdio(load_config_dict(tmp_path / "cfg.json"), stdin(), stdout) == 0
        responses = [parse_response(line) for line in stdout.getvalue().splitlines()]
        assert responses[:2] == [{"kind": "ready"}] * 2
        assert responses[3]["event"]["step_type"] == "action"

    def test_bad_base_config_is_rejected_before_any_line_is_read(self):
        read = []

        def stdin():
            read.append(True)
            yield json.dumps({"kind": "init", "vocab_size": 8})

        with pytest.raises(ConfigError, match="alpha"):
            serve_stdio({"detector": {"alpha": -1}}, stdin=stdin(), stdout=io.StringIO())
        assert read == []

    def test_a_non_ascii_frame_is_read_and_a_lone_surrogate_gets_one_bad_frame(self):
        # The console stdin decodes a byte that is not UTF-8 to a lone surrogate.
        first, second = (r.logits.tolist() for r in random_records(2, vocab=8))
        arrow = _step_frame(1, second, token_id=3, token_text=" \u2192 ")
        responses = run_wire(
            [
                {"kind": "init", "vocab_size": 8},
                _step_frame(0, first),
                json.dumps(arrow, ensure_ascii=False),
                "\udcff",
                {"kind": "finish"},
            ]
        )
        assert responses[2]["event"]["step_type"] == "observation"
        bad = {"kind": "error", "code": "bad_frame", "message": "frame is not valid UTF-8"}
        assert responses[3] == bad
        assert (responses[4]["kind"], responses[4]["total_steps"]) == ("summary", 2)
        assert len(responses) == 5

    def test_init_vocab_size_must_be_an_integer(self):
        for vocab_size in (8.9, "8", True, None):
            responses = run_wire([{"kind": "init", "vocab_size": vocab_size}])
            assert responses[0]["code"] == "bad_frame", vocab_size

    def test_zero_step_summary_is_json(self):
        responses = run_wire([{"kind": "init", "vocab_size": 8}, {"kind": "finish"}])
        assert responses[1]["total_steps"] == 0
        assert responses[1]["mean_entropy"] is None

    def test_passthrough_directives_have_no_logits(self):
        records = random_records(3, vocab=8)
        requests = [{"kind": "init", "vocab_size": 8}]
        requests += [{"kind": "step", "record": json.loads(r.to_json())} for r in records]
        requests.append({"kind": "finish"})
        responses = run_wire(requests)
        for resp in responses[1:4]:
            assert resp["intervened"] is False
            assert "logits" not in resp
            assert "temperature" not in resp

    def test_an_idle_session_holds_only_its_controller(self):
        vocab, capacity = 4096, 2
        vector = 8 * vocab
        rng = np.random.default_rng(7)

        def frame(t: int, logits: np.ndarray) -> str:
            return '{"kind":"step","record":' + TraceRecord(t=t, logits=logits).to_json() + "}"

        def sharp() -> np.ndarray:
            z = rng.standard_normal(vocab).astype(np.float32)
            z[int(rng.integers(vocab))] += 12.0
            return z

        lines = [json.dumps({"kind": "init", "vocab_size": vocab})]
        for t in range(120):
            if t == 70:  # one logit too many: a bad_frame, and the host retries t
                lines.append(frame(t, np.zeros(vocab + 1, dtype=np.float32)))
            lines.append(frame(t, np.zeros(vocab, np.float32) if t % 40 == 20 else sharp()))
        lines.append(json.dumps({"kind": "finish"}))

        class Requests:
            """The lines, noting the traced memory each time the next one is asked for."""

            def __init__(self):
                self.lines = iter(lines)
                self.held = np.zeros(len(lines), dtype=np.int64)  # allocates nothing later
                self.n = 0

            def __iter__(self):
                return self

            def __next__(self) -> str:
                gc.collect()  # also empties the interpreter's free lists
                if self.n < len(lines):
                    self.held[self.n] = tracemalloc.get_traced_memory()[0]
                self.n += 1
                return next(self.lines)

        class Answers:
            def __init__(self):
                self.count: dict = {}

            def write(self, text: str) -> None:
                answer = json.loads(text)
                key = (answer["kind"], answer.get("intervened"), answer.get("code"))
                self.count[key] = self.count.get(key, 0) + 1

            def flush(self) -> None:
                pass

        config = {"repair": {"pool_capacity": capacity}}
        serve_stdio(config, stdin=iter(lines[:30]), stdout=Answers())  # fills module-level caches
        requests, answers = Requests(), Answers()
        tracemalloc.start()
        try:
            serve_stdio(config, stdin=requests, stdout=answers)
        finally:
            tracemalloc.stop()
        assert answers.count.keys() == {
            ("ready", None, None),
            ("directive", False, None),
            ("directive", True, None),
            ("error", None, "bad_frame"),
            ("summary", None, None),
        }
        # From the first step on, the session holds the controller that init
        # built (its workspace among it) and the float32 rows its pool admits.
        # A quarter vector covers the stream's Python objects; the last
        # frame's text, its boxed floats or the last response would not fit.
        assert requests.held[1] - requests.held[0] >= vector  # the workspace
        retained = requests.held[2:].max() - requests.held[1]
        assert retained <= capacity * 4 * vocab + 0.25 * vector, retained

    def test_wire_matches_offline_replay(self):
        sc = Scenario(
            vocab_size=VOCAB,
            length=80,
            seed=6,
            segments=(
                StableRegime(steps=80, target_entropy=1.0, jitter=0.05),
                SpikeInjection(at_step=40, magnitude=3.0),
            ),
        )
        records = list(generate(sc)[0])
        requests = [{"kind": "init", "vocab_size": VOCAB}]
        requests += [{"kind": "step", "record": json.loads(r.to_json())} for r in records]
        requests.append({"kind": "finish"})
        responses = run_wire(requests)
        wire_events = [r["event"] for r in responses if r.get("kind") == "directive"]
        _, events, summary = replay_records(ControllerConfig(vocab_size=VOCAB), records)
        assert wire_events == [e.to_dict() for e in events]
        assert responses[-1]["spikes"] == summary.spikes

    def test_directive_logits_beyond_float32_saturate(self):
        # A spike at t=6 after six one-hot steps: the guided
        # extrapolation pushes the four unlikely tokens below -3.4e38.
        big = 3e38
        sharp, spike = [big] + [-big] * 7, [big] * 4 + [-big] * 4
        config = {"detector": {"h_min": 0.5, "g_min": 0.1, "t_warm": 3, "t_cool": 4}}
        records = [TraceRecord(t=t, logits=spike if t == 6 else sharp) for t in range(8)]
        requests = [{"kind": "init", "vocab_size": 8, "config": config}]
        requests += [{"kind": "step", "record": json.loads(r.to_json())} for r in records]
        requests.append({"kind": "finish"})
        responses = run_wire(requests)  # strict JSON: no Infinity

        directives, _, _ = replay_records(config_from_dict(config, vocab_size=8), records)
        assert [r["intervened"] for r in responses[1:-1]] == [d.intervened for d in directives]
        expected = directives[6].logits
        assert directives[6].intervened and np.all(np.isfinite(expected))
        assert np.all(expected[4:] < -np.finfo(np.float32).max)
        logits = np.asarray(responses[7]["logits"], dtype=np.float32)
        assert np.array_equal(logits[4:], np.full(4, -np.finfo(np.float32).max, np.float32))
        assert np.array_equal(logits[:4], expected[:4].astype(np.float32))
        assert responses[-1]["kind"] == "summary"


class TestConsoleStdin:
    """``spreg serve --stdio`` reads the console's stdin as UTF-8, whatever the locale."""

    @staticmethod
    def serve(lines: list[bytes], encoding: str) -> list[dict]:
        done = subprocess.run(
            [sys.executable, "-m", "spreg", "serve", "--stdio"],
            input=b"\n".join(lines) + b"\n",
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": encoding},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        return [parse_response(line) for line in done.stdout.decode("ascii").splitlines()]

    def test_a_line_that_is_not_utf8_gets_one_bad_frame(self):
        init = json.dumps({"kind": "init", "vocab_size": 4}).encode()
        finish = json.dumps({"kind": "finish"}).encode()
        # A strict error handler is Python's default outside the C and POSIX locales.
        responses = self.serve([b"\xff", b'{"kind": "\xff"}', init, finish], "utf-8:strict")
        bad = {"kind": "error", "code": "bad_frame", "message": "frame is not valid UTF-8"}
        assert responses[:3] == [bad, bad, {"kind": "ready"}]
        assert len(responses) == 4 and responses[3]["kind"] == "summary"

    def test_utf8_text_is_read_as_utf8_under_a_latin1_locale(self):
        frame = json.dumps({"kind": "\u00e9"}, ensure_ascii=False).encode()
        responses = self.serve([frame], "latin-1")
        assert responses == [
            {"kind": "error", "code": "bad_frame", "message": "unknown request kind '\u00e9'"}
        ]


# -- wire fault injection --------------------------------------------------------

FAULT_CONFIG = {
    "detector": {"h_min": 1.0, "h_extreme": 1.9, "t_warm": 3, "t_cool": 4, "c_high": 6}
}


def fault_session_records() -> list[TraceRecord]:
    """60 steps at |V|=8 with repair and aggressive steps under FAULT_CONFIG.

    Every sampled token is reported inline with the next step, the one
    way the wire takes it.
    """
    rng = np.random.default_rng(3)
    records = []
    for t in range(60):
        scale = 0.2 if (t % 13 == 12 or 44 <= t < 54) else 4.0
        records.append(
            TraceRecord(
                t=t,
                logits=(rng.standard_normal(8) * scale).astype(np.float32),
                token_id=None if t == 0 else int(rng.integers(8)),
                token_text=None if t == 0 else "x",
            )
        )
    return records


FAULT_RECORDS = fault_session_records()
FAULT_REPLAY = replay_records(config_from_dict(FAULT_CONFIG, vocab_size=8), FAULT_RECORDS)
FAULT_FRAMES = (
    [{"kind": "init", "vocab_size": 8, "config": FAULT_CONFIG}]
    + [{"kind": "step", "record": json.loads(r.to_json())} for r in FAULT_RECORDS]
    + [{"kind": "finish"}]
)


def _step_frame(t: int, logits: list, **token) -> dict:
    return {"kind": "step", "record": {"t": t, "logits": logits, **token}}


def _sampled_frame(t: int) -> dict:
    """A request kind the wire does not take: a token is reported with its step."""
    return {"kind": "sampled", "token_id": 1, "token_text": "x"}


# Each maps the step the session expects next to one bad frame.
BAD_FRAMES = (
    [lambda t, c=c: {"kind": "init", "vocab_size": 8, "config": c} for c in BAD_CONFIGS]
    + [lambda t, v=v: {"kind": "init", "vocab_size": v} for v in (8.9, "8", 10**15, 2**62)]
    + [
        lambda t: _step_frame(t, [float("nan")] * 8),
        lambda t: _step_frame(t, [0.0] * 9),
        lambda t: _step_frame(t - 1, [0.0] * 8),
        lambda t: _step_frame(t + 1, [0.0] * 8),
        lambda t: json.dumps(_step_frame(t, [0.0] * 8))[:30],
        lambda t: "[" * 100000,
        lambda t: [1, 2],  # JSON, but not an object
        lambda t: _step_frame(t, [10**400] + [0.0] * 7),  # an int beyond float range
        lambda t: _step_frame(t, [1e39] + [0.0] * 7),  # beyond float32 range
        lambda t: {"kind": "init", "vocab_size": 8, "confg": FAULT_CONFIG},  # an unknown key
        lambda t: {"kind": "finish", "summary": True},
        lambda t: {"kind": [1]},  # a kind that cannot be hashed
    ]
    + [_sampled_frame]
)
# A step record with a non-integer ``t`` or ``token_id``, a ``token_text``
# that is not a string, or a key that is not a record field; once the
# session is initialized, each is answered with a ``bad_frame`` error.
BAD_RECORD_FRAMES = (
    [lambda t, f=f: _step_frame(f(t), [0.0] * 8) for f in (float, lambda t: t + 0.9)]
    + [
        lambda t, v=v: _step_frame(t, [0.0] * 8, token_id=v, token_text="x")
        for v in (2.7, True, "3")
    ]
    + [
        lambda t, v=v: _step_frame(t, [0.0] * 8, token_id=1, token_text=v)
        for v in (5, 0, False, [], {})
    ]
    + [lambda t: _step_frame(t, [0.0] * 8, tokenid=1, token_text="x")]
)


class TestWireFaultInjection:
    @settings(max_examples=40, deadline=None)
    @given(
        faults=st.lists(
            st.tuples(
                st.integers(0, len(FAULT_FRAMES) - 1),
                st.sampled_from(BAD_FRAMES + BAD_RECORD_FRAMES),
            ),
            max_size=10,
        )
    )
    def test_each_bad_frame_gets_one_error_and_the_stream_is_unchanged(self, faults):
        # A fault at position p goes before valid frame p (the finish frame
        # is last); after p valid frames the session expects step max(p-1, 0).
        # Each frame is (the code its error must carry, or "" for any
        # error, or None for a valid frame; the frame).
        frames: list[tuple[str | None, dict | str]] = []
        for p, valid in enumerate(FAULT_FRAMES):
            for q, make in faults:
                if q == p:
                    bad = make is _sampled_frame or (p > 0 and make in BAD_RECORD_FRAMES)
                    code = "bad_frame" if bad else ""
                    frames.append((code, make(max(p - 1, 0))))
            frames.append((None, valid))
        responses = run_wire([frame for _, frame in frames])

        assert len(responses) == len(frames)
        good = []
        for (code, _), response in zip(frames, responses):
            if code is None:
                good.append(response)
            else:
                assert response["kind"] == "error"
                if code:
                    assert response["code"] == code
        directives, events, summary = FAULT_REPLAY
        assert {d.mode for d in directives} == set(Mode)
        assert good[0] == {"kind": "ready"}
        for response, directive, event in zip(good[1:-1], directives, events, strict=True):
            assert response["event"] == event.to_dict()
            assert response["intervened"] == directive.intervened
            if directive.intervened:
                logits = np.asarray(response["logits"], dtype=np.float32)
                expected = directive.logits.astype(np.float32)
                assert np.array_equal(logits.view(np.uint32), expected.view(np.uint32))
                assert response.get("temperature") == directive.temperature_override
        assert good[-1] == {"kind": "summary", **asdict(summary)}
