import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreg.errors import ConfigError
from spreg.plan_tracker import GuidanceTable, PatternSet, PlanTracker, StepType


@pytest.fixture(scope="module")
def patterns():
    return PatternSet.default()


def classify_text(patterns, text):
    tracker = PlanTracker(patterns)
    tracker.ingest(text)
    return tracker.classify()


class TestClassification:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Step 1: Let me think about the divisors", StepType.REASONING),
            ("Action: invoking the search Tool now", StepType.ACTION),
            ("Result => 42", StepType.OBSERVATION),
            ("Therefore, the final answer is 7", StepType.CONCLUSION),
        ],
    )
    def test_reference_strings(self, patterns, text, expected):
        assert classify_text(patterns, text) is expected

    def test_code_fence_cues_action(self, patterns):
        tracker = PlanTracker(patterns)
        tracker.ingest("```")
        tracker.ingest("def ")
        assert tracker.classify() is StepType.ACTION

    def test_arrow_cues_observation(self, patterns):
        assert classify_text(patterns, "x → 9") is StepType.OBSERVATION

    def test_fixed_conclusion_tag(self, patterns):
        assert classify_text(patterns, "so the answer is 12") is StepType.CONCLUSION

    def test_default_type_is_reasoning(self, patterns):
        assert PlanTracker(patterns).classify() is StepType.REASONING

    def test_most_recent_match_wins(self, patterns):
        assert classify_text(patterns, "Action: ran it. Observation: it failed") is StepType.OBSERVATION
        assert classify_text(patterns, "Observation noted. Action next") is StepType.ACTION

    def test_priority_breaks_position_ties(self):
        # Both step types match at position 0; conclusion outranks action.
        spec = {
            "reasoning": {"keywords": ["let me"], "regex_cues": []},
            "action": {"keywords": ["overlap"], "regex_cues": []},
            "observation": {"keywords": ["seen"], "regex_cues": []},
            "conclusion": {"keywords": ["overlap"], "regex_cues": []},
        }
        assert classify_text(PatternSet(spec), "overlap here") is StepType.CONCLUSION

    def test_sticky_without_matches(self, patterns):
        tracker = PlanTracker(patterns)
        tracker.ingest("Therefore it holds")
        assert tracker.classify() is StepType.CONCLUSION
        tracker.ingest(" and nothing cue-like 12345 " * 30)  # flushes the tail
        assert "therefore" not in tracker.tail.lower()
        assert tracker.classify() is StepType.CONCLUSION

    def test_keyword_boundaries(self, patterns):
        # "reaction" must not fire the "action" keyword.
        assert classify_text(patterns, "Result: a chain reaction") is StepType.OBSERVATION


class TestTail:
    def test_tail_is_bounded(self, patterns):
        tracker = PlanTracker(patterns)
        for _ in range(300):
            tracker.ingest("a")
        assert len(tracker.tail) == 256

    def test_empty_token_is_noop(self, patterns):
        tracker = PlanTracker(patterns)
        tracker.ingest("Therefore")
        before = tracker.tail
        tracker.ingest("")
        assert tracker.tail == before

    def test_conclusion_keyword_lands_in_tail(self, patterns):
        tracker = PlanTracker(patterns)
        tracker.ingest("Therefore, ")
        assert "Therefore" in tracker.tail


TOKEN_POOL = [
    "There", "fore", " Let ", "me", "Result", "=>", "``", "`", "def ",
    "Thus ", "tool", "...", "x9", " ", "12", "obs", "ervation", "final ",
    "answer is", "→", "import ", "zq",
]


class TestIncrementalEquivalence:
    @given(st.lists(st.sampled_from(TOKEN_POOL), min_size=0, max_size=120))
    @settings(max_examples=300)
    def test_token_by_token_equals_batch(self, tokens):
        incremental = PlanTracker(PatternSet.default())
        for tok in tokens:
            incremental.ingest(tok)
        batch = PlanTracker(PatternSet.default())
        batch.ingest("".join(tokens))
        assert incremental.tail == batch.tail
        assert incremental.classify() is batch.classify()


class TestPatternSet:
    def test_missing_step_type_rejected(self):
        with pytest.raises(ConfigError):
            PatternSet({"reasoning": {"keywords": ["x"], "regex_cues": []}})

    def test_empty_pattern_list_rejected(self):
        spec = {s.value: {"keywords": ["x"], "regex_cues": []} for s in StepType}
        spec["action"] = {"keywords": [], "regex_cues": []}
        with pytest.raises(ConfigError):
            PatternSet(spec)

    def test_bad_regex_rejected(self):
        spec = {s.value: {"keywords": ["x"], "regex_cues": []} for s in StepType}
        spec["action"]["regex_cues"] = ["("]
        with pytest.raises(ConfigError):
            PatternSet(spec)

    def test_load_from_file(self, tmp_path):
        spec = {s.value: {"keywords": [s.value], "regex_cues": []} for s in StepType}
        path = tmp_path / "patterns.json"
        path.write_text(json.dumps(spec))
        ps = PatternSet.from_file(path)
        assert ps.last_match("observation!") is StepType.OBSERVATION
        with pytest.raises(ConfigError):
            PatternSet.from_file(tmp_path / "missing.json")


class TestGuidanceTable:
    def test_defaults(self):
        table = GuidanceTable()
        assert table.lambda_base[StepType.REASONING] == 1.5
        assert table.lambda_base[StepType.ACTION] == 1.8
        assert table.lambda_base[StepType.OBSERVATION] == 1.5
        assert table.lambda_base[StepType.CONCLUSION] == 1.8

    def test_custom_lookup(self):
        table = GuidanceTable(
            lambda_base={**GuidanceTable().lambda_base, StepType.CONCLUSION: 2.0},
        )
        assert table.lambda_base[StepType.CONCLUSION] == 2.0

    def test_rejects_non_positive_entries(self):
        with pytest.raises(ConfigError):
            GuidanceTable(lambda_base={**GuidanceTable().lambda_base, StepType.ACTION: 0.0})
        with pytest.raises(ConfigError):
            GuidanceTable(lambda_base={**GuidanceTable().lambda_base, StepType.ACTION: -1.0})

    def test_rejects_missing_entries(self):
        with pytest.raises(ConfigError):
            GuidanceTable(lambda_base={StepType.ACTION: 1.0})
