"""Trace files, the stdio wire protocol, and CSV export.

Traces and wire frames are line-delimited JSON, UTF-8, one object per
line. Logit arrays travel as 32-bit floats (what inference stacks emit)
and are widened to float64 on ingest; writing renders the exact f32
values so a read/write round trip is bit-identical. Directives for
unintervened steps omit the logits array entirely, so a passthrough step
costs O(1) bandwidth and the host reuses its own buffer.

The stdio server answers every request with exactly one response and
never desynchronizes: protocol violations produce an ``error`` response
(with the session intact), malformed frames are skipped the same way.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .config import config_from_dict
from .controller import Controller, ControllerConfig, Directive, EventRecord, StreamSummary
from .errors import ConfigError, ProtocolError, TraceFormatError, checked_int

__all__ = [
    "TraceRecord",
    "write_trace",
    "read_trace",
    "write_events",
    "read_events",
    "export_csv",
    "serve_stdio",
    "replay_records",
]


def _as_f32(values, *, what: str) -> np.ndarray:
    # A float beyond float32 range casts to inf, which the check below rejects.
    with np.errstate(over="ignore"):
        arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be 1-D")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


@dataclass(frozen=True)
class TraceRecord:
    """One decoding step on the wire: conditional logits plus optional extras.

    ``token_id``/``token_text`` describe the token sampled at t-1.
    """

    t: int
    logits: np.ndarray
    ref_logits: np.ndarray | None = None
    token_id: int | None = None
    token_text: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "logits", _as_f32(self.logits, what="logits"))
        if self.ref_logits is not None:
            ref = _as_f32(self.ref_logits, what="ref_logits")
            if ref.shape != self.logits.shape:
                raise ValueError("ref_logits shape differs from logits")
            object.__setattr__(self, "ref_logits", ref)
        object.__setattr__(self, "t", checked_int(self.t, "t"))
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if self.token_id is not None:
            object.__setattr__(self, "token_id", checked_int(self.token_id, "token_id"))
        if self.token_text is not None and not isinstance(self.token_text, str):
            raise ValueError(f"token_text must be a string, got {type(self.token_text).__name__}")

    def to_dict(self) -> dict:
        d: dict = {"t": self.t, "logits": self.logits.tolist()}
        if self.ref_logits is not None:
            d["ref_logits"] = self.ref_logits.tolist()
        if self.token_id is not None:
            d["token_id"] = self.token_id
        if self.token_text is not None:
            d["token_text"] = self.token_text
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TraceRecord":
        try:
            return cls(
                t=d["t"],
                logits=d["logits"],
                ref_logits=d.get("ref_logits"),
                token_id=d.get("token_id"),
                token_text=d.get("token_text"),
            )
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"bad trace record: {exc}") from exc


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
            except (KeyError, RecursionError, TypeError, ValueError) as exc:
                raise TraceFormatError(str(exc), line=lineno) from exc
            yield lineno, item
    except UnicodeDecodeError as exc:  # decoded in blocks, so no line number
        raise TraceFormatError(f"file is not UTF-8: {exc}") from exc


def write_trace(records: Iterable[TraceRecord], path_or_file) -> int:
    """Write records as JSONL; returns the number written."""
    with _opened(path_or_file, "w") as fh:
        n = 0
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), separators=(",", ":")))
            fh.write("\n")
            n += 1
        return n


def read_trace(path_or_file) -> list[TraceRecord]:
    """Parse a JSONL trace, enforcing step order and a constant vocab size."""
    with _opened(path_or_file, "r") as fh:
        records: list[TraceRecord] = []
        vocab: int | None = None
        for lineno, rec in _jsonl(fh, TraceRecord.from_dict):
            if rec.t != len(records):
                raise TraceFormatError(
                    f"step index jumped to {rec.t}, expected {len(records)}", line=lineno
                )
            if vocab is None:
                vocab = rec.logits.size
            elif rec.logits.size != vocab:
                raise TraceFormatError(
                    f"vocab size changed mid-trace ({vocab} -> {rec.logits.size})", line=lineno
                )
            records.append(rec)
        return records


def write_events(events: Iterable[EventRecord], path_or_file) -> int:
    with _opened(path_or_file, "w") as fh:
        n = 0
        for event in events:
            fh.write(event.to_json())
            fh.write("\n")
            n += 1
        return n


def read_events(path_or_file) -> list[EventRecord]:
    with _opened(path_or_file, "r") as fh:
        return [event for _, event in _jsonl(fh, EventRecord.from_dict)]


# -- CSV export ---------------------------------------------------------------

_CSV_COLUMNS = (
    "t",
    "H",
    "mu",
    "sigma",
    "gradient",
    "phase",
    "step_type",
    "spike",
    "lambda",
    "mode",
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def export_csv(events: Iterable[EventRecord], path_or_file) -> int:
    """One row per step with the trajectory quantities, 6 significant digits."""
    with _opened(path_or_file, "w") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        n = 0
        for e in events:
            row = (
                e.t,
                e.entropy,
                e.mu,
                e.sigma,
                e.gradient,
                e.phase.value,
                e.step_type.value,
                e.spike,
                e.lambda_applied,
                e.mode.value,
            )
            fh.write(",".join(_cell(v) for v in row) + "\n")
            n += 1
        return n


def replay_records(
    config: ControllerConfig, records: Iterable[TraceRecord]
) -> tuple[list[Directive], list[EventRecord], StreamSummary]:
    """Drive a fresh controller over recorded steps."""
    controller = Controller(config)
    directives: list[Directive] = []
    events: list[EventRecord] = []
    for rec in records:
        directive, event = _feed(controller, rec)
        directives.append(directive)
        events.append(event)
    return directives, events, controller.finish()


def _feed(controller: Controller, rec: TraceRecord) -> tuple[Directive, EventRecord]:
    """Run one recorded step through ``controller``."""
    return controller.process_step(
        rec.t, rec.logits, rec.ref_logits, token_id=rec.token_id, token_text=rec.token_text
    )


# -- stdio wire protocol --------------------------------------------------------


def _directive_payload(t: int, directive: Directive, event: EventRecord) -> dict:
    payload: dict = {"kind": "directive", "t": t, "intervened": directive.intervened}
    if directive.intervened:
        payload["logits"] = directive.logits.astype(np.float32).tolist()
        if directive.temperature_override is not None:
            payload["temperature"] = directive.temperature_override
    payload["event"] = event.to_dict()
    return payload


def _error(code: str, message: str) -> dict:
    return {"kind": "error", "code": code, "message": message}


class _Session:
    """Request dispatch for one stdio session."""

    def __init__(self, base_config: dict):
        self.base_config = base_config
        self.controller: Controller | None = None

    def handle(self, msg: dict) -> dict:
        kind = msg.get("kind")
        if kind == "init":
            return self._init(msg)
        if kind == "step":
            return self._step(msg)
        if kind == "sampled":
            return self._sampled(msg)
        if kind == "finish":
            return self._finish()
        return _error("bad_frame", f"unknown request kind {kind!r}")

    def _init(self, msg: dict) -> dict:
        try:
            vocab_size = checked_int(msg.get("vocab_size"), "init vocab_size")
        except ValueError as exc:
            return _error("bad_frame", str(exc))
        payload = msg.get("config")
        if payload is None:
            payload = self.base_config
        try:
            self.controller = Controller(config_from_dict(payload, vocab_size=vocab_size))
        except ConfigError as exc:
            return _error("config", str(exc))
        return {"kind": "ready"}

    def _step(self, msg: dict) -> dict:
        if self.controller is None:
            return _error("not_initialized", "send init before step")
        try:
            rec = TraceRecord.from_dict(msg.get("record") or {})
        except ValueError as exc:
            return _error("bad_frame", str(exc))
        try:
            directive, event = _feed(self.controller, rec)
        except ProtocolError as exc:
            return _error("protocol", str(exc))
        except ValueError as exc:
            return _error("bad_frame", str(exc))
        return _directive_payload(rec.t, directive, event)

    def _sampled(self, msg: dict) -> dict:
        if self.controller is None:
            return _error("not_initialized", "send init before sampled")
        try:
            self.controller.notify_sampled(msg.get("token_id"), msg.get("token_text"))
        except ProtocolError as exc:
            return _error("protocol", str(exc))
        except ValueError as exc:
            return _error("bad_frame", str(exc))
        return {"kind": "ready"}

    def _finish(self) -> dict:
        if self.controller is None:
            return _error("not_initialized", "send init before finish")
        summary = self.controller.finish()
        return {"kind": "summary", **asdict(summary)}


def serve_stdio(
    config: dict | None = None,
    stdin: TextIO | None = None,
    stdout: TextIO | None = None,
) -> int:
    """Run the request/response loop until a finish request or EOF.

    ``config`` is the config dict used when the init message carries no
    config payload of its own.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    session = _Session(config or {})
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            msg = json.loads(line)
            if not isinstance(msg, dict):
                raise ValueError("frame must be a JSON object")
        except (RecursionError, ValueError) as exc:
            response = _error("bad_frame", str(exc))
        else:
            response = session.handle(msg)
        stdout.write(json.dumps(response, separators=(",", ":")) + "\n")
        stdout.flush()
        if response.get("kind") == "summary":
            break
    return 0
