"""Closed-loop hosts for the benchmark's workloads, with output checks.

Each runner plays a host with one stream: it cannot sample token t until
it has the directive for t, so it sends step t+1 only after step t's
answer is back. Only the call (or the request round trip) is timed;
choosing inputs and checking outputs happen outside the timed interval.
Every step that raises, gets an error back or breaks a check counts as
one failed step.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from array import array
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from spreg import Controller, ControllerConfig, EventRecord, serve_stdio
from spreg.harness import GroundTruth, evaluate
from spreg.trace_io import TraceRecord

from streams import AGGRESSIVE, NONE, Bank, Step
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
T_RECOVER = 0.3
SETUP_REPEATS = 10
MEMORY_STEPS = 120
DECODE_SAMPLE_EVERY = 97

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import spreg
spreg.Controller(spreg.ControllerConfig(vocab_size=int(sys.argv[1])))
print(time.perf_counter() - t0)
"""


@dataclass
class StreamRun:
    """What one driven stream produced: latencies, failures, detections."""

    vocab_size: int
    latency_ns: array = field(default_factory=lambda: array("q"))
    intervened_ns: array = field(default_factory=lambda: array("q"))
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    spikes: list[int] = field(default_factory=list)
    # Only events that carry or should carry a detection are kept, plus the
    # last one, so a long run holds no per-step objects.
    marked: list[EventRecord] = field(default_factory=list)
    last_event: EventRecord | None = None

    def fail(self, t: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"step {t}: {why}")

    def note(self, st: Step, event: EventRecord, elapsed_ns: int, intervened: bool) -> None:
        self.latency_ns.append(elapsed_ns)
        if intervened:
            self.intervened_ns.append(elapsed_ns)
        if st.spike:
            self.spikes.append(st.t)
        if st.spike or event.spike:
            self.marked.append(event)
        self.last_event = event

    def detection(self) -> tuple[float, float]:
        """(recall, precision) of the spike detections against the schedule."""
        if self.last_event is None:
            return math.nan, math.nan
        events = list(self.marked)
        if not events or events[-1] is not self.last_event:
            events.append(self.last_event)
        scored = evaluate(events, GroundTruth(injected_spike_steps=tuple(self.spikes)))
        return scored.recall, scored.precision


def _check_event(run: StreamRun, st: Step, event: EventRecord) -> None:
    if event.t != st.t:
        run.fail(st.t, f"event is for step {event.t}")
    elif event.mode.value != st.mode:
        run.fail(st.t, f"mode {event.mode.value}, schedule says {st.mode}")
    elif event.spike != st.spike:
        run.fail(st.t, f"spike flag {event.spike}, schedule says {st.spike}")
    elif st.source is not None and event.reference_source.value != st.source:
        run.fail(st.t, f"reference {event.reference_source.value}, schedule says {st.source}")


def _check_intervened(run: StreamRun, st: Step, logits: np.ndarray, temperature) -> None:
    if logits.shape != (run.vocab_size,) or not np.all(np.isfinite(logits)):
        run.fail(st.t, "intervened logits are not finite")
    if temperature != (T_RECOVER if st.mode == AGGRESSIVE else None):
        run.fail(st.t, f"temperature override {temperature}")


# -- in-process -----------------------------------------------------------------


def drive_controller(bank: Bank, steps, seconds: float, notify: bool, tracer: Tracer | None = None) -> StreamRun:
    """Run in-process ``Controller.process_step`` until ``seconds`` pass.

    With ``notify`` the host reports each sampled token through
    notify_sampled, timed with the step that follows it; otherwise the
    token rides inline with the next step.
    """
    run = StreamRun(bank.vocab_size)
    ctrl = Controller(ControllerConfig(vocab_size=bank.vocab_size))
    vectors = bank.vectors
    deadline = perf_counter() + seconds
    for st in steps:
        if perf_counter() >= deadline:
            break
        vec = vectors[st.vec]
        ref = None if st.ref is None else vectors[st.ref]
        if tracer is not None:
            tracer.step_id = st.t
        run.attempted += 1
        try:
            if notify:
                t0 = perf_counter_ns()
                if st.token_id is not None:
                    ctrl.notify_sampled(st.token_id, st.token_text)
                directive, event = ctrl.process_step(st.t, vec, ref)
            else:
                t0 = perf_counter_ns()
                directive, event = ctrl.process_step(
                    st.t, vec, ref, token_id=st.token_id, token_text=st.token_text
                )
            t1 = perf_counter_ns()
        except Exception as exc:  # the stream cannot go on after a failed step
            run.fail(st.t, f"raised {type(exc).__name__}: {exc}")
            break
        run.note(st, event, t1 - t0, directive.intervened)
        _check_event(run, st, event)
        if directive.intervened:
            _check_intervened(run, st, directive.logits, directive.temperature_override)
        elif directive.logits.dtype != np.float64 or not np.array_equal(directive.logits, vec):
            run.fail(st.t, "passthrough logits differ from the widened input")
    return run


def _retained_mb(drive) -> float:
    """Memory allocated while ``drive`` runs and still held when it calls ``mark``."""
    gc.collect()
    tracemalloc.start()
    held = []

    def mark():
        gc.collect()
        held.append(tracemalloc.get_traced_memory()[0])

    try:
        before = tracemalloc.get_traced_memory()[0]
        drive(mark)
    finally:
        tracemalloc.stop()
    return (held[0] - before) / 2**20


def stream_memory_mb(bank: Bank, steps, notify: bool) -> float:
    """Memory an in-process stream retains after its first MEMORY_STEPS steps."""
    Controller(ControllerConfig(vocab_size=bank.vocab_size))  # fill module-level caches first

    def drive(mark):
        ctrl = Controller(ControllerConfig(vocab_size=bank.vocab_size))
        for st in islice(steps, MEMORY_STEPS):
            vec = bank.vectors[st.vec]
            ref = None if st.ref is None else bank.vectors[st.ref]
            if notify:
                if st.token_id is not None:
                    ctrl.notify_sampled(st.token_id, st.token_text)
                ctrl.process_step(st.t, vec, ref)
            else:
                ctrl.process_step(st.t, vec, ref, st.token_id, st.token_text)
        mark()

    return _retained_mb(drive)


def serve_memory_mb(bank: Bank, frames: "Frames", new_steps) -> float:
    """Memory a ``serve_stdio`` session retains after its first MEMORY_STEPS steps.

    ``new_steps()`` gives a fresh schedule. The session runs in-process so
    that tracemalloc sees it, and the mark is taken just before the finish
    request, while the session still holds its controller.
    """
    # A short session first fills module-level caches.
    drive_serve_in_process(bank, frames, islice(new_steps(), 5), math.inf, Tracer())
    return _retained_mb(
        lambda mark: drive_serve_in_process(
            bank, frames, islice(new_steps(), MEMORY_STEPS), math.inf, Tracer(), before_finish=mark
        )
    )


def env_with_src() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def controller_setup_s(vocab_size: int) -> float:
    """Median time for a fresh interpreter to import spreg and build a Controller."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(vocab_size)],
            env=env_with_src(),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times[1:])  # the first spawn may write bytecode


# -- wire -------------------------------------------------------------------------


class Frames:
    """Step frames as a host writes them; each logit array is encoded once."""

    def __init__(self, bank: Bank):
        self.arrays = [json.dumps(v.astype(np.float64).tolist()) for v in bank.vectors]

    def frame(self, st: Step) -> str:
        parts = [f'{{"kind":"step","record":{{"t":{st.t},"logits":', self.arrays[st.vec]]
        if st.ref is not None:
            parts += [',"ref_logits":', self.arrays[st.ref]]
        if st.token_id is not None:
            parts.append(f',"token_id":{st.token_id},"token_text":{json.dumps(st.token_text)}')
        parts.append("}}\n")
        return "".join(parts)


def check_response(run: StreamRun, st: Step, text: str):
    """The wire output contract for one step.

    Returns (event, logits): the decoded event (None if the response is
    not a directive) and the intervened logits as float32 (else None).
    """
    response = json.loads(text)
    if response.get("kind") != "directive" or response.get("t") != st.t:
        run.fail(st.t, f"unexpected response {text[:160]!r}")
        return None, None
    event = EventRecord.from_dict(response["event"])
    _check_event(run, st, event)
    logits = None
    if response["intervened"] != (st.mode != NONE):
        run.fail(st.t, "intervened flag disagrees with the schedule")
    elif response["intervened"]:
        logits = np.array(response["logits"], dtype=np.float32)
        _check_intervened(run, st, logits, response.get("temperature"))
    elif "logits" in response:
        run.fail(st.t, "passthrough directive carries logits")
    return event, logits


class Server:
    """A ``python -m spreg serve --stdio`` subprocess driven over OS pipes."""

    def __init__(self, vocab_size: int):
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "spreg", "serve", "--stdio"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env_with_src(),
            cwd=SRC.parent,
        )
        try:
            reply = self.request(b'{"kind":"init","vocab_size":%d}\n' % vocab_size)
        except (OSError, RuntimeError):
            self.close()
            raise
        self.setup_s = perf_counter() - t0
        if json.loads(reply).get("kind") != "ready":
            self.close()
            raise RuntimeError(f"server refused init: {reply!r}")

    def request(self, frame: bytes) -> bytes:
        self.proc.stdin.write(frame)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server closed its output")
        return line

    def close(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def server_setup_s(vocab_size: int) -> float:
    """Median time from spawning the server to its answer to init."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        with Server(vocab_size) as server:
            times.append(server.setup_s)
    return statistics.median(times[1:])


def drive_server(bank: Bank, frames: Frames, steps, seconds: float):
    """Drive a server subprocess for ``seconds``.

    Returns the run and the answers (step, event, logits) in step order,
    for the comparison with an in-process controller.
    """
    run = StreamRun(bank.vocab_size)
    answers = []
    with Server(bank.vocab_size) as server:
        deadline = perf_counter() + seconds
        for st in steps:
            if perf_counter() >= deadline:
                break
            frame = frames.frame(st).encode()
            run.attempted += 1
            t0 = perf_counter_ns()
            try:
                line = server.request(frame)
            except (OSError, RuntimeError) as exc:
                run.fail(st.t, f"wire failed: {exc}")
                break
            t1 = perf_counter_ns()
            event, logits = check_response(run, st, line.decode())
            if event is None:
                break
            run.note(st, event, t1 - t0, logits is not None)
            answers.append((st, event, logits))
        try:
            summary = json.loads(server.request(b'{"kind":"finish"}\n'))
        except (OSError, RuntimeError) as exc:
            summary = {"error": str(exc)}
        if summary.get("total_steps") != len(answers):
            run.fail(-1, f"summary {summary} after {len(answers)} steps")
    return run, answers


def compare_in_process(run: StreamRun, bank: Bank, frames: Frames, answers) -> None:
    """Each wire answer equals that of an in-process Controller fed the same frames.

    A frame carries its float32 values exactly, so the controller is fed
    the bank vectors; a fixed sample of frames is decoded with the
    protocol's own parser to confirm they decode to those vectors.
    """
    ctrl = Controller(ControllerConfig(vocab_size=bank.vocab_size))
    for i, (st, event, logits) in enumerate(answers):
        vec = bank.vectors[st.vec]
        ref = None if st.ref is None else bank.vectors[st.ref]
        if i % DECODE_SAMPLE_EVERY == 0:
            rec = TraceRecord.from_dict(json.loads(frames.frame(st))["record"])
            if not np.array_equal(rec.logits, vec) or (
                ref is not None and not np.array_equal(rec.ref_logits, ref)
            ):
                run.fail(st.t, "frame does not decode to the step's vectors")
        directive, expected = ctrl.process_step(st.t, vec, ref, st.token_id, st.token_text)
        if event != expected:
            run.fail(st.t, "wire event differs from the in-process event")
        if directive.intervened and (
            logits is None or not np.array_equal(logits, directive.logits.astype(np.float32))
        ):
            run.fail(st.t, "wire logits differ from the in-process logits")


class HostPipe:
    """stdin and stdout for ``serve_stdio`` run in-process.

    Hands out an init request, step frames until the deadline or the end
    of ``steps``, then a finish request, calling ``before_finish`` (if
    given) just before it. Each step's request is a span from handing out
    its frame to the server's write of the answer, so it covers decode,
    the step and the encode.
    """

    def __init__(
        self, bank: Bank, frames: Frames, steps, seconds: float, tracer: Tracer, before_finish=None
    ):
        self.run = StreamRun(bank.vocab_size)
        self.before_finish = before_finish
        self.frames = frames
        self.steps = steps
        self.tracer = tracer
        self.deadline = perf_counter() + seconds
        self.bytes_in = self.bytes_out = 0
        self.control: list[dict] = []  # answers to init and finish
        self._step: Step | None = None
        self._span = -1
        self._started = self._finished = False

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if self._finished:
            raise StopIteration
        if not self._started:
            self._started = True
            return '{"kind":"init","vocab_size":%d}\n' % self.run.vocab_size
        st = self._step = None if perf_counter() >= self.deadline else next(self.steps, None)
        if st is None:
            self._finished = True
            if self.before_finish is not None:
                self.before_finish()
            return '{"kind":"finish"}\n'
        line = self.frames.frame(st)
        self.bytes_in += len(line)
        self.run.attempted += 1
        self.tracer.step_id = st.t
        self._span = self.tracer.open("trace_io.request")
        return line

    def write(self, text: str) -> None:
        st = self._step
        if st is None:
            self.control.append(json.loads(text))
            return
        self.tracer.close(self._span)
        elapsed = self.tracer.ends[self._span] - self.tracer.starts[self._span]
        self.bytes_out += len(text)
        event, logits = check_response(self.run, st, text)
        if event is None:
            self._finished = True
            return
        self.run.note(st, event, elapsed, logits is not None)

    def flush(self) -> None:
        pass


def drive_serve_in_process(
    bank: Bank, frames: Frames, steps, seconds: float, tracer: Tracer, before_finish=None
) -> HostPipe:
    pipe = HostPipe(bank, frames, steps, seconds, tracer, before_finish)
    serve_stdio(None, stdin=pipe, stdout=pipe)
    kinds = [answer.get("kind") for answer in pipe.control]
    steps_done = len(pipe.run.latency_ns)
    if kinds != ["ready", "summary"] or pipe.control[1]["total_steps"] != steps_done:
        pipe.run.fail(-1, f"control answers {pipe.control} after {steps_done} steps")
    return pipe
