import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import oracle_last_match
from spreg.config import config_from_dict, load_config_dict
from spreg.errors import ConfigError
from spreg.plan_tracker import _OVERLAP, GuidanceTable, PatternSet, PlanTracker, StepType


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


# Pieces of the default cues: keywords split across tokens, mixed case,
# word-character neighbours and multi-token regex cues.
FRAGMENTS = [
    "There", "fore", "THERE", "FORE", "thus", "Thus ", "final", " answer", " is", "the",
    "Let", " me", "fir", "st", "think", "ing", "Tool", "s", "ac", "tion", "func",
    "def ", "import ", "{", "\"", "`", "``", "Res", "ult", "OUTPUT", "obs", "ervation",
    "=>", "=", ">", "→", "Step", " 12", "3", "x", "_", "on", " ", "\n", ".",
]


def _outside_exact_scan(patterns, stream: str, tail: str) -> bool:
    """Whether ``tail`` holds a match the incremental scan is documented to miss.

    Those are a match that trimming created at the front of the tail, and a
    match of ``_OVERLAP`` characters or more.
    """
    offset = len(stream) - len(tail)
    for _, pattern in patterns._patterns:
        if offset and pattern.match(tail) and not pattern.match(stream, offset):
            return True
        if any(m.end() - m.start() >= _OVERLAP for m in pattern.finditer(tail)):
            return True
    return False


class TestIncrementalScan:
    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=150))
    @settings(max_examples=100, deadline=None)
    def test_equals_a_full_rescan_token_by_token(self, tokens):
        patterns = PatternSet.default()
        tracker = PlanTracker(patterns)
        expected = StepType.REASONING
        stream = ""
        for tok in tokens:
            tracker.ingest(tok)
            stream += tok
            if _outside_exact_scan(patterns, stream, tracker.tail):
                return  # from here on the two may differ by design
            expected = oracle_last_match(patterns, tracker.tail) or expected
            assert tracker.classify() is expected

    @pytest.mark.parametrize("padding", ["", " " * 40])
    def test_appended_word_character_destroys_a_match(self, patterns, padding):
        tracker = PlanTracker(patterns)
        for tok in ("Result => 1", padding, " tool"):
            tracker.ingest(tok)
            tracker.classify()
        assert tracker.classify() is StepType.ACTION
        tracker.ingest("s")
        assert tracker.classify() is StepType.OBSERVATION

    def test_keyword_split_across_tokens(self, patterns):
        tracker = PlanTracker(patterns)
        tracker.ingest("Result: 3. There")
        assert tracker.classify() is StepType.OBSERVATION
        tracker.ingest("fore")
        assert tracker.classify() is StepType.CONCLUSION

    def test_trimmed_match_no_longer_counts(self, patterns):
        # "=>" leaves the tail in the step that turns "tool" into "tools",
        # so nothing in the tail matches and the type sticks at action.
        tracker = PlanTracker(patterns)
        for tok in ["=>"] + ["abc "] * 62 + ["x", " tool"]:
            tracker.ingest(tok)
            tracker.classify()
        assert len(tracker.tail) == 256 and tracker.classify() is StepType.ACTION
        tracker.ingest("s")
        assert tracker.classify() is StepType.ACTION

    def test_match_created_by_trimming_is_not_seen(self, patterns):
        # Once "Result: on" is trimmed, the tail starts with "def ", which a
        # full rescan reads as an action cue; the stream held "ondef ".
        tracker = PlanTracker(patterns)
        tracker.ingest("Result: on")
        tracker.ingest("def ")
        assert tracker.classify() is StepType.OBSERVATION
        for _ in range(63):
            tracker.ingest("abc ")
            assert tracker.classify() is StepType.OBSERVATION
        assert tracker.tail.startswith("def abc")
        assert oracle_last_match(patterns, tracker.tail) is StepType.ACTION

    @pytest.mark.parametrize(
        "spaces, expected", [(28, StepType.REASONING), (29, StepType.OBSERVATION)]
    )
    def test_unbounded_step_cue_is_seen_within_the_overlap(self, patterns, spaces, expected):
        tracker = PlanTracker(patterns)
        tracker.ingest("Result: Step")
        for _ in range(spaces):
            tracker.ingest(" ")
            assert tracker.classify() is StepType.OBSERVATION
        tracker.ingest("2")
        assert tracker.classify() is expected
        assert oracle_last_match(patterns, tracker.tail) is StepType.REASONING


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

    def test_keyword_as_long_as_the_overlap_rejected(self):
        spec = {s.value: {"keywords": ["x"], "regex_cues": []} for s in StepType}
        spec["action"]["keywords"] = ["a" * (_OVERLAP - 1)]
        PatternSet(spec)
        spec["action"]["keywords"] = ["a" * _OVERLAP]
        with pytest.raises(ConfigError, match="shorter than"):
            PatternSet(spec)

    @pytest.mark.parametrize("key", ["regex_cue", "keyword"])
    def test_misspelled_entry_key_rejected(self, key):
        spec = {s.value: {"keywords": [s.value]} for s in StepType}
        spec["observation"][key] = ["=>"]
        with pytest.raises(ConfigError, match=f"unknown patterns.observation keys: {key}$"):
            PatternSet(spec)

    def test_unknown_step_type_rejected(self):
        spec = {s.value: {"keywords": [s.value]} for s in StepType}
        spec["Action"] = {"keywords": ["tool"]}
        with pytest.raises(
            ConfigError,
            match="patterns key 'Action' must be one of reasoning, action, observation, conclusion",
        ):
            PatternSet(spec)

    def test_doc_accepted_in_the_file_and_each_entry(self):
        spec = {s.value: {"keywords": [s.value], "doc": "cues"} for s in StepType}
        plain = PatternSet({s.value: {"keywords": [s.value]} for s in StepType})
        documented = PatternSet({**spec, "doc": {"action": "tool use"}})
        assert documented._patterns == plain._patterns

    def test_default_is_built_once(self):
        assert PatternSet.default() is PatternSet.default()

    def test_load_from_file(self, tmp_path):
        # A pattern file is named by a config file and read with it.
        spec = {s.value: {"keywords": [s.value], "regex_cues": []} for s in StepType}
        (tmp_path / "patterns.json").write_text(json.dumps(spec))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"vocab_size": 8, "patterns": "patterns.json"}))
        patterns = config_from_dict(load_config_dict(config)).patterns
        assert classify_text(patterns, "observation!") is StepType.OBSERVATION
        config.write_text(json.dumps({"vocab_size": 8, "patterns": "missing.json"}))
        with pytest.raises(ConfigError, match="cannot load pattern file .*missing.json"):
            load_config_dict(config)


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

    def test_missing_entries_take_their_defaults(self):
        table = GuidanceTable(lambda_base={StepType.ACTION: 1.0})
        assert table.lambda_base == {**GuidanceTable().lambda_base, StepType.ACTION: 1.0}
        assert GuidanceTable(lambda_base={}) == GuidanceTable()
