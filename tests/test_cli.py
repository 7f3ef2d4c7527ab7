import json

import pytest

from spreg.cli import main
from spreg.config import config_from_dict, config_to_dict, load_config
from spreg.controller import ControllerConfig
from spreg.errors import ConfigError
from spreg.plan_tracker import StepType


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

    def test_preset_selection(self):
        cfg = config_from_dict({"vocab_size": 8, "detector_preset": "conservative"})
        assert cfg.detector.alpha == 2.0

    def test_doc_keys_ignored(self):
        cfg = config_from_dict(
            {"vocab_size": 8, "detector": {"alpha": 1.0, "doc": {"alpha": "sensitivity"}}}
        )
        assert cfg.detector.alpha == 1.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"vocab_size": 8, "detectorr": {}})
        with pytest.raises(ConfigError):
            config_from_dict({"vocab_size": 8, "detector": {"alhpa": 2.0}})
        for key, value in (("direction", "toward-conditional"), ("pool_aggregation", "log")):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({"vocab_size": 8, "repair": {key: value}})

    def test_vocab_required(self):
        with pytest.raises(ConfigError):
            config_from_dict({})

    def test_packaged_default_file_loads(self):
        from importlib import resources

        payload = json.loads(
            resources.files("spreg").joinpath("data").joinpath("config.default.json").read_text()
        )
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
        cfg = load_config(tmp_path / "cfg.json")
        assert cfg.patterns is not None

    def test_round_trip_through_dict(self):
        cfg = ControllerConfig(vocab_size=32)
        again = config_from_dict(config_to_dict(cfg))
        assert again.detector == cfg.detector
        assert again.repair == cfg.repair


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
        trace = tmp_path / "t.jsonl"
        assert main(["run", "--scenario", "fig1-like", "--trace", str(trace)]) == 0
        run_out = json.loads(capsys.readouterr().out)
        assert main(["replay", "--trace", str(trace)]) == 0
        replay_out = json.loads(capsys.readouterr().out)
        assert replay_out["summary"] == run_out["summary"]

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["run", "--scenario", "missing-thing"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--scenario", "stable", "--config", str(bad)]) == 2

    def test_malformed_trace_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"t": 0, "logits": [0.1, 0.2]}\n{"t": 5, "logits": [0.1, 0.2]}\n')
        assert main(["replay", "--trace", str(trace)]) == 3

    def test_empty_trace_exits_3(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("")
        assert main(["replay", "--trace", str(trace)]) == 3

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
        cfg = {"detector": {"t_warm": 10}}
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
