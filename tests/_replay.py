"""Whole-stream trace helpers for tests.

``spreg`` streams every offline replay (``trace_io.replay_stream``). Tests
that build, index or keep a whole trace use these instead: one writes
records to a trace file, one reads a whole trace into a list, and one keeps
every directive and event.
"""

from spreg.controller import Controller
from spreg.trace_io import TraceRecord, _feed, _jsonl, _opened, trace_lines


def write_trace(records, path_or_file) -> int:
    """Write records as JSONL; returns the number written."""
    with _opened(path_or_file, "w") as fh:
        return sum(1 for _ in trace_lines(records, fh))


def read_trace(path_or_file) -> list[TraceRecord]:
    """Parse a JSONL trace; the controller that replays it checks each step."""
    with _opened(path_or_file, "r") as fh:
        return [rec for _, rec in _jsonl(fh, TraceRecord.from_dict)]


def replay_records(config, records):
    """Drive a fresh controller over ``records``; returns (directives, events, summary)."""
    controller = Controller(config)
    directives, events = [], []
    for rec in records:
        directive, event = _feed(controller, rec)
        directives.append(directive)
        events.append(event)
    return directives, events, controller.finish()
