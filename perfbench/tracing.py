"""In-memory span tracing around spreg's layer boundaries.

Wrappers are installed from outside the package: each replaces a module
attribute (a function the controller or repair module looks up at call
time, or a method on a class) and is removed again on exit, leaving every
attribute as it was found. Spans carry a name, a start, an end, the span
that was open when they began, and the step they belong to. A layer's
self time is its span time minus the part its child spans cover, so the
self times of one step add up to the time of that step's root spans.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import spreg.controller
import spreg.repair
import spreg.trace_io
from spreg.controller import Controller
from spreg.detector import SpikeDetector
from spreg.monitor import EntropyWindow
from spreg.plan_tracker import PlanTracker
from spreg.repair import ReferencePool
from spreg.trace_io import TraceRecord


class Tracer:
    """Spans of one traced run, kept in parallel lists until the end."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.steps = array("q")
        self.counts: Counter = Counter()
        self.step_id = -1
        self._open: list[int] = []

    def open(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.steps.append(self.step_id)
        self.ends.append(0)
        self._open.append(span)
        self.starts.append(perf_counter_ns())
        return span

    def close(self, span: int) -> None:
        self.ends[span] = perf_counter_ns()
        self._open.pop()

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span (duration, self time) in ns."""
        duration = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        covered = np.zeros_like(duration)
        child = parents >= 0
        np.add.at(covered, parents[child], duration[child])
        return duration, duration - covered

    def root_time_per_step(self) -> dict[int, int]:
        """Summed root-span time of each step, in ns."""
        out: Counter = Counter()
        for start, end, parent, step in zip(self.starts, self.ends, self.parents, self.steps):
            if parent < 0:
                out[step] += end - start
        return dict(out)

    def write(self, path: Path) -> None:
        """Write every span as gzipped tab-separated text."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tstep\tname\tparent\tstart_ns\tend_ns\n")
            for i, row in enumerate(
                zip(self.steps, self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{i}\t" + "\t".join(map(str, row)) + "\n")


def _wrap(tracer: Tracer, name: str, fn, on_call=None):
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_call is not None:
            on_call(tracer.counts, args, result)
        return result

    return traced


def _count_decision(counts, args, result):
    counts["detector." + result[1].kind.value] += 1


def _count_ingest(counts, args, result):
    if args[1]:
        counts["plan_tracker.text_ingests"] += 1


def _count_admit(counts, args, result):
    counts["repair.pool_admitted"] += bool(result)


def _count_reference(counts, args, result):
    directive, event = result
    if directive.intervened:
        counts["repair.ref_" + event.reference_source.value] += 1


# (owner, attribute, span name, counter hook). Module functions are wrapped
# in the namespace of the module that calls them.
_FUNCTIONS = (
    (spreg.controller, "entropy_and_logprobs", "distributions.entropy", None),
    (spreg.controller, "shannon_entropy", "distributions.output_entropy", None),
    (spreg.controller, "log_softmax", "distributions.log_softmax", None),
    (spreg.repair, "log_softmax", "distributions.log_softmax", None),
    (spreg.controller, "entropy_gradient", "monitor.gradient", None),
    (spreg.controller, "token_weights", "repair.token_weights", None),
    (spreg.controller, "guided_logits", "repair.guided_logits", None),
    (spreg.repair, "guided_logits", "repair.guided_logits", None),
    (spreg.controller, "aggressive_recover", "repair.aggressive", None),
)
_METHODS = (
    (EntropyWindow, "push", "monitor.push", None),
    (SpikeDetector, "advance", "detector.advance", _count_decision),
    (PlanTracker, "ingest", "plan_tracker.ingest", _count_ingest),
    (PlanTracker, "classify", "plan_tracker.classify", None),
    (ReferencePool, "record", "repair.pool_record", _count_admit),
    (ReferencePool, "synthesize", "repair.pool_synthesize", None),
    (Controller, "process_step", "controller.process_step", _count_reference),
    (Controller, "notify_sampled", "controller.notify_sampled", None),
)


class _JsonModule:
    """Stands in for ``json`` inside spreg.trace_io with a traced ``loads``."""

    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


def traced_attributes():
    """(owner, attribute) pairs the tracer replaces while installed."""
    pairs = [(owner, attr) for owner, attr, _, _ in _FUNCTIONS + _METHODS]
    return pairs + [(TraceRecord, "from_dict"), (spreg.trace_io, "json")]


@contextmanager
def installed(tracer: Tracer):
    """Route the layer boundaries through ``tracer`` for the with-block."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr in traced_attributes()]
    try:
        for owner, attr, name, hook in _FUNCTIONS + _METHODS:
            setattr(owner, attr, _wrap(tracer, name, vars(owner)[attr], hook))
        from_dict = vars(TraceRecord)["from_dict"].__func__
        TraceRecord.from_dict = classmethod(_wrap(tracer, "trace_io.frame_decode", from_dict))
        spreg.trace_io.json = _JsonModule(_wrap(tracer, "trace_io.frame_decode", json.loads))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# Self time of each span name, reported per traced step.
SELF_METRICS = {
    "distributions.entropy": "distributions.entropy_us",
    "distributions.output_entropy": "distributions.output_entropy_us",
    "distributions.log_softmax": "distributions.log_softmax_us",
    "monitor.push": "monitor.push_us",
    "monitor.gradient": "monitor.gradient_us",
    "detector.advance": "detector.advance_us",
    "plan_tracker.ingest": "plan_tracker.ingest_us",
    "plan_tracker.classify": "plan_tracker.classify_us",
    "repair.pool_record": "repair.pool_record_us",
    "repair.pool_synthesize": "repair.pool_synthesize_us",
    "repair.token_weights": "repair.token_weights_us",
    "repair.guided_logits": "repair.guided_logits_us",
    "repair.aggressive": "repair.aggressive_us",
    "controller.process_step": "controller.self_us",
    "controller.notify_sampled": "controller.notify_sampled_us",
    "trace_io.frame_decode": "trace_io.frame_decode_us",
    "trace_io.request": "trace_io.directive_encode_us",
}
_DISTRIBUTION_CALLS = ("distributions.entropy", "distributions.output_entropy", "distributions.log_softmax")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of a traced run, times in us per traced step."""
    steps = len({s for s in tracer.steps if s >= 0})
    duration, self_ns = tracer.self_times()
    names = np.array(tracer.names)
    out: dict[str, float] = {}
    for span, metric in SELF_METRICS.items():
        out[metric] = float(self_ns[names == span].sum()) / 1e3 / max(steps, 1)
    for span, metric in (
        ("controller.process_step", "controller.process_step_us"),
        ("trace_io.request", "trace_io.request_us"),
    ):
        out[metric] = float(duration[names == span].sum()) / 1e3 / max(steps, 1)
    counts = tracer.counts
    out["distributions.calls_per_step"] = _ratio(
        sum(int((names == n).sum()) for n in _DISTRIBUTION_CALLS), steps
    )
    for kind, metric in (
        ("trigger_repair", "detector.triggers_per_step"),
        ("continue_repair", "detector.continues_per_step"),
        ("aggressive_recover", "detector.aggressive_per_step"),
    ):
        out[metric] = _ratio(counts["detector." + kind], steps)
    out["plan_tracker.rescan_ratio"] = _ratio(
        counts["plan_tracker.text_ingests"], int((names == "plan_tracker.classify").sum())
    )
    # The controller offers the pool only unintervened steps below mu, and
    # the pool admits every offer, so admitted over offered would always
    # read 1. The ratio counts every traced step as offered instead: the
    # share of steps whose distribution is copied into the pool.
    out["repair.pool_admit_ratio"] = _ratio(counts["repair.pool_admitted"], steps)
    sources = {s: counts["repair.ref_" + s] for s in ("external", "pool", "uniform")}
    for source, n in sources.items():
        out[f"repair.ref_{source}_frac"] = _ratio(n, sum(sources.values()))
    out["trace.steps"] = steps
    out["trace.root_us"] = float(duration[np.frombuffer(tracer.parents, dtype=np.int64) < 0].sum()) / 1e3 / max(steps, 1)
    return out
