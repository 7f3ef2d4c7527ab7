"""Trace files, the stdio wire protocol, and CSV export.

Traces and wire frames are line-delimited JSON, UTF-8, one object per
line. Logit arrays travel as 32-bit floats (what inference stacks emit)
and are read as float32. spreg writes each logit with at most 9
significant digits, which identify every float32, so reading it back as
float32 recovers it bit for bit and a read/write round trip is
bit-identical. Directive logits beyond float32's range are saturated to
its largest finite value, so no response carries an infinity. Directives
for unintervened steps omit the logits array entirely, so a passthrough
step costs O(1) bandwidth and the host reuses its own buffer.

Reading a trace line or a wire frame only parses it: ``Controller.process_step``
validates every step, in-process, on the wire and from a file. ``replay_stream``
is the one offline driver: it feeds each numbered record to the controller as
it arrives, so it keeps one event row per record and no record's logits.
``replay_trace`` hands it the lines of a trace file as they are parsed, and
``spreg run`` the generated records, each written by ``trace_lines`` as the
next line of its trace.

The stdio server answers every request with exactly one response and
never desynchronizes: protocol violations produce an ``error`` response
(with the session intact), malformed frames are skipped the same way,
and so is a line that is not UTF-8, whatever the locale.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .config import config_from_dict
from .controller import Controller, ControllerConfig, Directive, EventRecord, StreamSummary
from .distributions import FLOAT32_MAX
from .errors import ConfigError, ProtocolError, TraceFormatError, checked_int, checked_object

__all__ = [
    "TraceRecord",
    "trace_lines",
    "write_events",
    "read_events",
    "export_csv",
    "serve_stdio",
    "replay_stream",
    "replay_trace",
]


@dataclass(frozen=True)
class TraceRecord:
    """One decoding step on the wire: conditional logits plus optional extras.

    ``token_id``/``token_text`` describe the token sampled at t-1. Only the
    logit arrays are converted (to float32); ``process_step`` checks values.
    """

    t: int
    logits: np.ndarray
    ref_logits: np.ndarray | None = None
    token_id: int | None = None
    token_text: str | None = None

    def __post_init__(self):
        with np.errstate(over="ignore"):
            object.__setattr__(self, "logits", np.asarray(self.logits, dtype=np.float32))
            if self.ref_logits is not None:
                ref = np.asarray(self.ref_logits, dtype=np.float32)
                object.__setattr__(self, "ref_logits", ref)

    def to_json(self) -> str:
        """The record as JSON text: fields in wire order, absent extras left out."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return _json_object({name: value for name, value in values if value is not None})

    @classmethod
    def from_dict(cls, d: dict) -> "TraceRecord":
        """Read a record object; an unknown key, or no ``t`` or ``logits``, is an error."""
        checked_object(d, "record", _RECORD_KEYS, required=("t", "logits"))
        try:
            return cls(**d)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"bad trace record: {exc}") from exc


_RECORD_KEYS = frozenset(f.name for f in fields(TraceRecord))


@contextmanager
def _opened(path_or_file, mode: str):
    """A path is opened (and closed) as UTF-8; an open file is used as given.

    An input path that cannot be opened raises TraceFormatError.
    """
    if isinstance(path_or_file, (str, Path)):
        try:
            fh = open(path_or_file, mode, encoding="utf-8")
        except OSError as exc:
            if mode != "r":
                raise
            raise TraceFormatError(f"cannot read {path_or_file}: {exc.strerror or exc}") from exc
        with fh:
            yield fh
    else:
        yield path_or_file


def _jsonl(fh, parse):
    """Yield (line number, parse(object)) per non-blank line of ``fh``."""
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                item = parse(json.loads(line))
            except (RecursionError, ValueError) as exc:
                raise TraceFormatError(str(exc), line=lineno) from exc
            yield lineno, item
    except UnicodeDecodeError as exc:  # decoded in blocks, so no line number
        raise TraceFormatError(f"file is not UTF-8: {exc}") from exc


def _write_lines(lines: Iterable[str], path_or_file) -> int:
    """Write each string as one line; returns the number written."""
    n = 0
    with _opened(path_or_file, "w") as fh:
        for n, line in enumerate(lines, start=1):
            fh.write(line)
            fh.write("\n")
    return n


def trace_lines(
    records: Iterable[TraceRecord], fh: TextIO | None
) -> Iterator[tuple[int, TraceRecord]]:
    """Yield (line number, record) per record, first writing it to ``fh`` if one is given."""
    for lineno, rec in enumerate(records, start=1):
        if fh is not None:
            fh.write(rec.to_json())
            fh.write("\n")
        yield lineno, rec


def write_events(events: Iterable[EventRecord], path_or_file) -> int:
    return _write_lines((event.to_json() for event in events), path_or_file)


def read_events(path_or_file) -> list[EventRecord]:
    with _opened(path_or_file, "r") as fh:
        return [event for _, event in _jsonl(fh, EventRecord.from_dict)]


# -- CSV export ---------------------------------------------------------------

# Each CSV column's header and the EventRecord field it shows.
_CSV_COLUMNS = {
    "t": "t",
    "H": "entropy",
    "mu": "mu",
    "sigma": "sigma",
    "gradient": "gradient",
    "phase": "phase",
    "step_type": "step_type",
    "spike": "spike",
    "lambda": "lambda_applied",
    "mode": "mode",
}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def export_csv(events: Iterable[EventRecord], path_or_file) -> int:
    """One row per step with the trajectory quantities, 6 significant digits.

    Returns the number of rows, not counting the header.
    """
    rows = (",".join(_cell(getattr(e, name)) for name in _CSV_COLUMNS.values()) for e in events)
    return _write_lines(chain([",".join(_CSV_COLUMNS)], rows), path_or_file) - 1


def replay_stream(
    numbered: Iterable[tuple[int, TraceRecord]], config: ControllerConfig
) -> tuple[list[EventRecord], StreamSummary]:
    """Drive a fresh controller over (line number, record) pairs as they arrive.

    The controller takes ``config`` with the first record's length as its
    vocab size; a record that it rejects, or whose length it cannot take,
    raises TraceFormatError naming its line.
    """
    controller: Controller | None = None
    events: list[EventRecord] = []
    for lineno, rec in numbered:
        try:
            if controller is None:
                controller = Controller(replace(config, vocab_size=rec.logits.size))
            events.append(_feed(controller, rec)[1])
        except (ConfigError, ProtocolError, ValueError) as exc:
            raise TraceFormatError(str(exc), line=lineno) from exc
    if controller is None:
        raise TraceFormatError("trace is empty")
    return events, controller.finish()


def replay_trace(path_or_file, config: dict) -> tuple[list[EventRecord], StreamSummary]:
    """Replay a JSONL trace one record at a time, as it is read; ``config`` is parsed first."""
    with _opened(path_or_file, "r") as fh:
        base = config_from_dict(config, vocab_size=2)  # the first record gives the vocab size
        return replay_stream(_jsonl(fh, TraceRecord.from_dict), base)


def _feed(controller: Controller, rec: TraceRecord) -> tuple[Directive, EventRecord]:
    """Run one recorded step through ``controller``."""
    return controller.process_step(
        rec.t, rec.logits, rec.ref_logits, token_id=rec.token_id, token_text=rec.token_text
    )


# -- JSON writing -----------------------------------------------------------------


def _f32_json(values: np.ndarray) -> str:
    """A float32 array as a JSON number list, rendered in one ``%`` pass.

    ``%.9g`` writes at most 9 significant digits, enough to identify every
    float32, so ``json.loads`` and a float32 cast give back each value bit
    for bit. It writes -0.0 as ``-0``, which JSON reads as the integer 0,
    so those entries are written as ``-0.0``. NaN and infinity have no JSON
    form and raise ValueError.
    """
    if not np.isfinite(values).all():
        raise ValueError("only finite logits can be written as JSON")
    spec = ["%.9g"] * values.size
    for i in np.flatnonzero((values == 0) & np.signbit(values)):
        spec[i] = "%.1f"
    return ("[" + ",".join(spec) + "]") % tuple(values.tolist())


def _json_value(value) -> str:
    if isinstance(value, np.ndarray):
        return _f32_json(value)
    return json.dumps(value, separators=(",", ":"))


def _json_object(fields: dict) -> str:
    """``fields`` as one compact JSON object; each ndarray goes through ``_f32_json``."""
    return "{" + ",".join(f"{json.dumps(k)}:{_json_value(v)}" for k, v in fields.items()) + "}"


# -- stdio wire protocol --------------------------------------------------------


def _directive_payload(t: int, directive: Directive, event: EventRecord) -> dict:
    payload: dict = {"kind": "directive", "t": t, "intervened": directive.intervened}
    if directive.intervened:
        # Saturated to float32's range, so the cast cannot overflow to infinity.
        payload["logits"] = np.clip(directive.logits, -FLOAT32_MAX, FLOAT32_MAX).astype(np.float32)
        if directive.temperature_override is not None:
            payload["temperature"] = directive.temperature_override
    payload["event"] = event.to_dict()
    return payload


def _error(code: str, message: str) -> dict:
    return {"kind": "error", "code": code, "message": message}


class _Session:
    """Request dispatch for one stdio session, whose base config is parsed once."""

    def __init__(self, base_config: dict):
        self.base = config_from_dict(base_config, vocab_size=2)  # init gives the vocab size
        self.controller: Controller | None = None

    def handle(self, msg: dict) -> dict:
        """Answer one request; every error a request can cause is answered here."""
        kind = msg.get("kind")
        if kind not in ("init", "step", "finish"):
            return _error("bad_frame", f"unknown request kind {kind!r}")
        if kind != "init" and self.controller is None:
            return _error("not_initialized", f"send init before {kind}")
        try:
            if kind == "init":
                keys = {"kind", "vocab_size", "config"}
                checked_object(msg, "init", keys, required=("vocab_size",))
                vocab_size = checked_int(msg["vocab_size"], "init vocab_size")
                payload = msg.get("config")
                if payload is None:
                    config = replace(self.base, vocab_size=vocab_size)
                else:
                    config = config_from_dict(payload, vocab_size=vocab_size)
                self.controller = Controller(config)
                return {"kind": "ready"}
            if kind == "step":
                checked_object(msg, "step", {"kind", "record"}, required=("record",))
                # Popped, so the frame's boxed logit list dies before the step runs.
                rec = TraceRecord.from_dict(msg.pop("record"))
                directive, event = _feed(self.controller, rec)
                return _directive_payload(rec.t, directive, event)
            checked_object(msg, "finish", {"kind"})
            return {"kind": "summary", **asdict(self.controller.finish())}
        except ConfigError as exc:
            return _error("config", str(exc))
        except ProtocolError as exc:
            return _error("protocol", str(exc))
        except ValueError as exc:
            return _error("bad_frame", str(exc))


def serve_stdio(
    config: dict | None = None,
    stdin: Iterable[str] | None = None,
    stdout: TextIO | None = None,
) -> int:
    """Run the request/response loop until a finish request or EOF.

    ``config`` is the config dict used when the init message carries no
    config payload of its own; it is parsed before the first line is read,
    so a bad one raises ConfigError. ``stdin`` is any iterable of text lines;
    by default the console's stdin, read as UTF-8 whatever the locale.
    """
    session = _Session(config or {})
    if stdin is None:  # a byte that is not UTF-8 becomes a lone surrogate
        stdin = io.TextIOWrapper(sys.stdin.buffer, "utf-8", "surrogateescape", newline="\n")
    stdout = stdout if stdout is not None else sys.stdout
    for line in stdin:
        finished = _answer(session, line, stdout)
        del line  # the frame's text must not stay bound while the next line is read
        if finished:
            break
    return 0


def _answer(session: _Session, line: str, stdout: TextIO) -> bool:
    """Write the response to one request line; True once the session has finished.

    The frame's text, its parsed object and the response die when this
    returns, so between requests a session holds only its controller.
    """
    line = line.strip()
    if not line:
        return False
    try:
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError("frame is not valid UTF-8") from None
        msg = json.loads(line)
        if not isinstance(msg, dict):
            raise ValueError("frame must be a JSON object")
    except (RecursionError, ValueError) as exc:
        response = _error("bad_frame", str(exc))
    else:
        response = session.handle(msg)
    stdout.write(_json_object(response) + "\n")
    stdout.flush()
    return response.get("kind") == "summary"
