import io
import json
import sys
import tracemalloc
from collections.abc import Mapping
from dataclasses import fields
from functools import partial
from importlib import resources
from typing import get_args, get_origin, get_type_hints

import pytest

from spreg.cli import main
from spreg.config import config_from_dict, load_config_dict
from spreg.controller import ControllerConfig, EventRecord
from spreg.detector import DetectorConfig
from spreg.errors import ConfigError, TraceFormatError
from spreg.harness import (
    BUILTIN_SCENARIOS,
    DriftRegime,
    LoopRegime,
    Scenario,
    SpikeInjection,
    StableRegime,
)
from spreg.plan_tracker import Cues, GuidanceTable, PatternSet, StepType
from spreg.repair import RepairParams
from spreg.trace_io import read_events


# A valid event-file row; the malformed rows each change one field.
EVENT_ROW = {
    "t": 3, "entropy": 1.25, "mu": 1.0, "sigma": 0.5, "gradient": 0.1,
    "phase": "monitoring", "step_type": "reasoning", "spike": False,
    "lambda_applied": None, "repair_index": None, "reference_source": "n/a",
    "mode": "none", "modified_entropy": None,
}


def packaged_default_path():
    return resources.files("spreg").joinpath("data").joinpath("config.default.json")


def packaged_default_config() -> dict:
    return json.loads(packaged_default_path().read_text())


class TestConfigLoading:
    def test_minimal(self):
        cfg = config_from_dict({"vocab_size": 8})
        assert cfg.vocab_size == 8
        assert cfg.detector.alpha == 1.5

    def test_field_overrides(self):
        cfg = config_from_dict(
            {
                "vocab_size": 8,
                "detector": {"alpha": 2.5, "t_cool": 10},
                "repair": {"rho": 1.5},
                "guidance": {"lambda_base": {"conclusion": 2.0}},
            }
        )
        assert cfg.detector.alpha == 2.5
        assert cfg.detector.t_cool == 10
        assert cfg.repair.rho == 1.5
        assert cfg.guidance.lambda_base[StepType.CONCLUSION] == 2.0
        assert cfg.guidance.lambda_base[StepType.REASONING] == 1.5

    def test_doc_keys_ignored(self):
        doc = {"doc": {"alpha": "sensitivity"}}
        cfg = config_from_dict(
            {
                "vocab_size": 8,
                **doc,
                "detector": {"alpha": 1.0, **doc},
                "repair": doc,
                "guidance": {"lambda_base": doc, **doc},
            }
        )
        assert cfg == config_from_dict({"vocab_size": 8, "detector": {"alpha": 1.0}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"vocab_size": 8, "detectorr": {}})
        with pytest.raises(ConfigError):
            config_from_dict({"vocab_size": 8, "detector": {"alhpa": 2.0}})
        for key, value in (("direction", "toward-conditional"), ("pool_aggregation", "log")):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({"vocab_size": 8, "repair": {key: value}})
        with pytest.raises(ConfigError, match="detector_preset"):
            config_from_dict({"vocab_size": 8, "detector_preset": "conservative"})
        for section in ("detector", "repair"):
            with pytest.raises(ConfigError, match="epsilon"):
                config_from_dict({"vocab_size": 8, section: {"epsilon": 1e-6}})
        with pytest.raises(ConfigError, match="gamma"):
            config_from_dict({"vocab_size": 8, "guidance": {"gamma": {"action": 1.0}}})

    def test_vocab_required(self):
        with pytest.raises(ConfigError):
            config_from_dict({})

    def test_packaged_default_file_loads(self):
        payload = packaged_default_config()
        cfg = config_from_dict(payload)
        assert cfg.vocab_size == 64
        assert cfg.repair.t_recover == 0.3

    def test_load_config_resolves_pattern_path(self, tmp_path):
        patterns = {
            s: {"keywords": [s], "regex_cues": []}
            for s in ("reasoning", "action", "observation", "conclusion")
        }
        (tmp_path / "p.json").write_text(json.dumps(patterns))
        (tmp_path / "cfg.json").write_text(json.dumps({"vocab_size": 8, "patterns": "p.json"}))
        payload = load_config_dict(tmp_path / "cfg.json")
        (tmp_path / "p.json").unlink()
        # The dict carries the patterns themselves; building the config opens no file.
        cfg = config_from_dict(payload)
        assert cfg.patterns._patterns == PatternSet(patterns)._patterns
        with pytest.raises(ConfigError, match="patterns must be an object, got string"):
            config_from_dict({"vocab_size": 8, "patterns": "p.json"})

    def test_default_file_documents_every_field(self):
        payload = packaged_default_config()
        assert set(payload) == {f.name for f in fields(ControllerConfig)}
        for name, cls in (
            ("detector", DetectorConfig),
            ("repair", RepairParams),
            ("guidance", GuidanceTable),
        ):
            section = dict(payload[name])
            doc = section.pop("doc")
            names = {f.name for f in fields(cls)}
            assert set(section) == names, name
            assert set(doc) == names, name
            assert all(isinstance(line, str) and line for line in doc.values()), name
        # The file's values are the dataclass defaults.
        loaded = config_from_dict(load_config_dict(packaged_default_path()))
        assert loaded == ControllerConfig(vocab_size=64)


# A valid JSON object for each segment kind.
SEGMENT_ROWS = {
    StableRegime: {"kind": "stable", "steps": 4, "target_entropy": 1.2},
    DriftRegime: {"kind": "drift", "steps": 4, "slope": 0.1, "start_entropy": 1.2},
    LoopRegime: {"kind": "loop", "steps": 4, "tokens": [1, 2], "start_entropy": 1.2},
    SpikeInjection: {"kind": "spike", "at_step": 1, "magnitude": 2.0},
}


def parse_segment(row: dict):
    base = [SEGMENT_ROWS[StableRegime]] if row["kind"] == "spike" else []
    return Scenario.from_dict({"vocab_size": 16, "length": 4, "segments": [*base, row]})


def build_segment(cls, **row):
    """The segment ``cls`` of ``row`` built in process, checked by a Scenario."""
    base = [StableRegime(4, 1.2)] if cls is SpikeInjection else []
    segment = cls(**{key: value for key, value in row.items() if key != "kind"})
    return Scenario(16, 4, segments=(*base, segment))


def parse_config_section(section: str):
    return lambda row: config_from_dict({"vocab_size": 8, section: row})


def parse_pattern_entry(row: dict):
    patterns = {s.value: {"keywords": [s.value]} for s in StepType}
    return config_from_dict({"vocab_size": 8, "patterns": {**patterns, "action": row}})


def parse_event(row: dict):
    return read_events(io.StringIO(json.dumps(row)))


# Per dataclass read from JSON: a valid object, its gate, the gate's error,
# and how a config or segment builds the same object in process.
GATES = {
    DetectorConfig: ({}, parse_config_section("detector"), ConfigError, DetectorConfig),
    RepairParams: ({}, parse_config_section("repair"), ConfigError, RepairParams),
    GuidanceTable: ({}, parse_config_section("guidance"), ConfigError, GuidanceTable),
    Cues: ({"keywords": ["tool"]}, parse_pattern_entry, ConfigError, None),
    **{
        cls: (row, parse_segment, ConfigError, partial(build_segment, cls))
        for cls, row in SEGMENT_ROWS.items()
    },
    EventRecord: (EVENT_ROW, parse_event, TraceFormatError, None),
}


def wrong_json_values(kind) -> list:
    """Values of the wrong JSON type for a field whose type hint is ``kind``."""
    args = get_args(kind)
    if type(None) in args:  # null is right; anything else must be right for X
        return wrong_json_values(args[0])
    if get_origin(kind) is tuple:
        return ["1", *([value] for value in wrong_json_values(args[0]))]
    if get_origin(kind) is Mapping:  # an object, and one entry of the wrong type
        first = next(iter(args[0])).value
        return ["1", *({first: value} for value in wrong_json_values(args[1]))]
    if kind is int:
        return ["1", 2.5, True]
    if kind is float:
        return ["1"]
    return [1]  # bool, str and Enum fields


@pytest.mark.parametrize(
    "cls, name, value",
    [
        pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
        for cls in GATES
        for f in fields(cls)
        for value in wrong_json_values(get_type_hints(cls)[f.name])
    ],
)
def test_every_field_rejects_a_wrong_json_type(cls, name, value):
    row, parse, error, build = GATES[cls]
    parse(row)
    # A wrong mapping entry is blamed on its key.
    blamed = ".".join([name, *value]) if isinstance(value, dict) else name
    with pytest.raises(error, match=rf"\.{blamed} must") as from_json:
        parse({**row, name: value})
    if build is not None:
        # The same value built in process fails by the same rule, named
        # by the field alone.
        build(**row)
        with pytest.raises(ConfigError) as in_process:
            build(**{**row, name: value})
        assert str(from_json.value).endswith(str(in_process.value))


class TestCli:
    def test_run_builtin_scenario(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        events = tmp_path / "events.jsonl"
        code = main(
            ["run", "--scenario", "stable", "--csv", str(csv), "--events", str(events)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total_steps"] == 100
        assert payload["metrics"]["recall"] == 1.0
        assert csv.exists() and events.exists()

    def test_run_then_replay_consistency(self, tmp_path, capsys):
        self._check_run_then_replay(tmp_path, capsys, "fig1-like")

    @pytest.mark.parametrize(
        "scenario", [name for name in BUILTIN_SCENARIOS if name != "fig1-like"]
    )
    def test_run_then_replay_consistency_other_scenarios(self, tmp_path, capsys, scenario):
        self._check_run_then_replay(tmp_path, capsys, scenario)

    @staticmethod
    def _check_run_then_replay(tmp_path, capsys, scenario):
        trace = tmp_path / "t.jsonl"

        def outputs(name):
            events, csv = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.csv"
            return ["--events", str(events), "--csv", str(csv)]

        assert main(["run", "--scenario", scenario, "--trace", str(trace), *outputs("run")]) == 0
        run_out = json.loads(capsys.readouterr().out)
        assert main(["replay", "--trace", str(trace), *outputs("replay")]) == 0
        replay_out = json.loads(capsys.readouterr().out)
        assert replay_out["summary"] == run_out["summary"]
        for suffix in (".jsonl", ".csv"):
            run_file, replay_file = tmp_path / f"run{suffix}", tmp_path / f"replay{suffix}"
            assert run_file.read_bytes() == replay_file.read_bytes()

    def test_run_peak_memory_does_not_grow_with_scenario_length(self, tmp_path, capsys):
        def peak_bytes(steps: int) -> int:
            scenario = tmp_path / f"sc{steps}.json"
            stable = {"kind": "stable", "steps": steps, "target_entropy": 1.0, "jitter": 0.05}
            scenario.write_text(
                json.dumps({"vocab_size": 1024, "length": steps, "segments": [stable]})
            )
            trace = tmp_path / f"t{steps}.jsonl"
            tracemalloc.start()
            try:
                assert main(["run", "--scenario", str(scenario), "--trace", str(trace)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak_bytes(50)  # the first run also loads modules and caches
        short, long = peak_bytes(50), peak_bytes(400)
        # Keeping each float32 record and float64 directive would add 350 * 12 KiB.
        assert long - short < 1 << 20, (short, long)

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["run", "--scenario", "missing-thing"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unallocatable_scenario_vocab_exits_2(self, tmp_path, capsys):
        # 10**15 float64 logits exceed any address space, so no host can allocate
        # them; 2**62 passes the type rule's sys.maxsize bound but not numpy's size.
        scenario = tmp_path / "big.json"
        segment = {"kind": "stable", "steps": 4, "target_entropy": 1.0}
        for vocab in (10**15, 2**62):
            body = {"vocab_size": vocab, "length": 4, "segments": [segment]}
            scenario.write_text(json.dumps(body))
            assert main(["run", "--scenario", str(scenario)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"spreg: config error: vocab_size {vocab} cannot be allocated")
            assert err.count("\n") == 1

    def test_memory_error_while_running_exits_2(self, monkeypatch, capsys):
        def records():
            raise MemoryError("no room")
            yield

        monkeypatch.setattr("spreg.cli.generate", lambda scenario, detector: (records(), None))
        assert main(["run", "--scenario", "stable"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "spreg: config error: vocab_size 64 cannot be allocated: no room\n"

    def test_negative_seed_exits_2(self, capsys):
        assert main(["run", "--scenario", "stable", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "spreg: config error: seed must be >= 0, got -1\n"

    def test_seed_above_maxsize_exits_2(self, capsys):
        # The same integer rule as a scenario file's seed.
        assert main(["run", "--scenario", "stable", "--seed", str(sys.maxsize + 1)]) == 2
        err = f"spreg: config error: seed must be at most {sys.maxsize}, got {sys.maxsize + 1}\n"
        assert capsys.readouterr() == ("", err)

    def test_seed_option_changes_the_stream(self, tmp_path, capsys):
        traces = []
        for seed in ("1", "2"):
            trace = tmp_path / f"seed{seed}.jsonl"
            assert main(["run", "--scenario", "stable", "--seed", seed, "--trace", str(trace)]) == 0
            traces.append(trace.read_bytes())
        capsys.readouterr()
        assert traces[0] != traces[1]

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--scenario", "stable", "--config", str(bad)]) == 2
        for content in (b"\xe9", b"[" * 100000):  # not UTF-8; nested past the recursion limit
            bad.write_bytes(content)
            assert main(["run", "--scenario", "stable", "--config", str(bad)]) == 2
        bad.write_text(json.dumps({"repair": {"pool_capacity": 2**63}}))
        assert main(["run", "--scenario", "stable", "--config", str(bad)]) == 2
        assert "repair.pool_capacity" in capsys.readouterr().err
        bad.write_text(json.dumps({"detector": {"window": 1.5}}))
        assert main(["run", "--scenario", "stable", "--config", str(bad)]) == 2
        assert "detector.window" in capsys.readouterr().err
        # serve checks its base config at startup, before reading any frame.
        assert main(["serve", "--stdio", "--config", str(bad)]) == 2
        assert "detector.window" in capsys.readouterr().err
        # The scenario's vocab_size replaces the config's, which the type rule still reads.
        bad.write_text(json.dumps({"vocab_size": "x"}))
        assert main(["run", "--scenario", "stable", "--config", str(bad)]) == 2
        err = "spreg: config error: config.vocab_size must be an integer, got 'x'\n"
        assert capsys.readouterr() == ("", err)
        patterns = {s.value: {"keywords": [s.value]} for s in StepType}
        patterns["observation"]["regex_cue"] = ["=>"]
        bad.write_text(json.dumps({"patterns": patterns}))
        assert main(["run", "--scenario", "stable", "--config", str(bad)]) == 2
        assert "unknown patterns.observation keys: regex_cue" in capsys.readouterr().err

    def test_config_file_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["run", "--scenario", "stable", "--config", str(bad)]) == 2
        err = f"spreg: config error: config {bad} must be a JSON object\n"
        assert capsys.readouterr() == ("", err)

    def test_malformed_trace_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"t": 0, "logits": [0.1, 0.2]}\n{"t": 5, "logits": [0.1, 0.2]}\n')
        assert main(["replay", "--trace", str(trace)]) == 3
        # Nested past the recursion limit; an integer logit beyond float range.
        for line in ("[" * 100000, '{"t": 0, "logits": [1%s, 0.2]}' % ("0" * 400)):
            trace.write_text(line + "\n")
            assert main(["replay", "--trace", str(trace)]) == 3
        trace.write_bytes(b'{"t": 0, "logits": [0.1, 0.2]}\n\xe9\n')  # not UTF-8
        assert main(["replay", "--trace", str(trace)]) == 3

    @pytest.mark.parametrize(
        "line",
        [
            "5",
            "[1, 2]",
            pytest.param("[" * 100000, id="nested-past-recursion-limit"),
            pytest.param("\udce9", id="not-utf8"),  # written as the byte 0xE9
            *(
                pytest.param(json.dumps({**EVENT_ROW, key: value}), id=f"{key}={value!r}")
                for key, value in (
                    ("spike", "false"),
                    ("t", 2.5),
                    ("entropy", "nan"),
                    ("entropy", float("nan")),
                    ("repair_index", True),
                    ("mu", "1.0"),
                    ("t", sys.maxsize + 1),
                    ("note", "unknown key"),
                )
            ),
        ],
    )
    def test_malformed_events_exit_3(self, tmp_path, line):
        assert EventRecord.from_dict(EVENT_ROW).to_dict() == EVENT_ROW
        events = tmp_path / "events.jsonl"
        events.write_text(line + "\n", encoding="utf-8", errors="surrogateescape")
        assert main(["analyze", "--events", str(events), "--csv", str(tmp_path / "o.csv")]) == 3

    @pytest.mark.parametrize("logits", ["[5]", "5"])
    def test_one_logit_trace_is_a_format_error(self, tmp_path, capsys, logits):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"t": 0, "logits": %s}\n' % logits)
        assert main(["replay", "--trace", str(trace)]) == 3
        assert capsys.readouterr().err == "spreg: line 1: vocab_size must be >= 2, got 1\n"
        # The config is checked before the trace is read, so a bad one still exits 2.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"detector": {"window": 1.5}}))
        assert main(["replay", "--trace", str(trace), "--config", str(bad)]) == 2
        assert "detector.window" in capsys.readouterr().err

    def test_empty_trace_exits_3(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("")
        assert main(["replay", "--trace", str(trace)]) == 3

    @pytest.mark.parametrize(
        "command", [["replay", "--trace"], ["analyze", "--csv", "o.csv", "--events"]]
    )
    def test_missing_input_file_exits_3(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)  # analyze opens its relative o.csv first
        missing = str(tmp_path / "missing.jsonl")
        assert main(command + [missing]) == 3
        err = capsys.readouterr().err
        assert err == f"spreg: cannot read {missing}: No such file or directory\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--scenario", "stable", "--csv"],
            ["run", "--scenario", "stable", "--events"],
            ["run", "--scenario", "stable", "--trace"],
            ["replay", "--trace", "MISSING", "--events"],
            ["replay", "--trace", "MISSING", "--csv"],
            ["analyze", "--events", "MISSING", "--csv"],
        ],
    )
    def test_unwritable_output_exits_2_before_any_input_is_read(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.jsonl")
        unwritable = str(tmp_path / "no-such-dir" / "out")
        command = [missing if arg == "MISSING" else arg for arg in command]
        assert main(command + [unwritable]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"spreg: cannot write {unwritable}: No such file or directory\n"

    def test_analyze_round_trip(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["run", "--scenario", "stable", "--events", str(events)]) == 0
        capsys.readouterr()
        csv = tmp_path / "out.csv"
        assert main(["analyze", "--events", str(events), "--csv", str(csv)]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 100
        header = csv.read_text().splitlines()[0]
        assert header == "t,H,mu,sigma,gradient,phase,step_type,spike,lambda,mode"

    def test_scenario_file_and_custom_config(self, tmp_path, capsys):
        scenario = {
            "vocab_size": 32,
            "length": 30,
            "seed": 1,
            "segments": [
                {"kind": "stable", "steps": 30, "target_entropy": 1.0, "jitter": 0.05}
            ],
        }
        cfg = {"vocab_size": 9, "detector": {"t_warm": 10}}  # an integer vocab_size is ignored
        (tmp_path / "sc.json").write_text(json.dumps(scenario))
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = main(
            [
                "run",
                "--scenario",
                str(tmp_path / "sc.json"),
                "--config",
                str(tmp_path / "cfg.json"),
                "--events",
                str(tmp_path / "ev.jsonl"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        events = [json.loads(l) for l in (tmp_path / "ev.jsonl").read_text().splitlines()]
        assert events[9]["phase"] == "warmup"
        assert events[10]["phase"] == "monitoring"
