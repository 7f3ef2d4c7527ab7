"""Command line entry points.

  spreg run     --scenario <name-or-file> [--seed N] [--config F] [--csv F] [--events F] [--trace F]
  spreg replay  --trace <file> [--config F] [--csv F] [--events F]
  spreg serve   --stdio [--config F]
  spreg analyze --events <file> --csv <out>

Exit codes: 0 success, 2 configuration error or an output file that cannot
be opened, 3 format or protocol error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, replace
from pathlib import Path

from .config import config_from_dict, load_config_dict
from .errors import ConfigError, ProtocolError, TraceFormatError
from .harness import BUILTIN_SCENARIOS, Scenario, evaluate, generate
from .trace_io import (
    export_csv,
    read_events,
    replay_stream,
    replay_trace,
    serve_stdio,
    trace_lines,
    write_events,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="generate a synthetic scenario and run the control loop")
    run.add_argument("--scenario", required=True,
                     help=f"scenario file, or one of: {', '.join(BUILTIN_SCENARIOS)}")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--config", default=None, help="controller config JSON")
    run.add_argument("--csv", default=None, help="write a trajectory CSV here")
    run.add_argument("--events", default=None, help="write the event log (JSONL) here")
    run.add_argument("--trace", default=None, help="record the generated logit stream here")
    run.set_defaults(handler=_cmd_run, outputs=("trace", "events", "csv"))

    replay = sub.add_parser("replay", help="drive the controller over a recorded trace")
    replay.add_argument("--trace", required=True)
    replay.add_argument("--config", default=None)
    replay.add_argument("--csv", default=None)
    replay.add_argument("--events", default=None)
    replay.set_defaults(handler=_cmd_replay, outputs=("events", "csv"))

    serve = sub.add_parser("serve", help="speak the JSONL request/response protocol on stdio")
    serve.add_argument("--stdio", action="store_true", required=True)
    serve.add_argument("--config", default=None)
    serve.set_defaults(handler=_cmd_serve, outputs=())

    analyze = sub.add_parser("analyze", help="convert an event log to a trajectory CSV")
    analyze.add_argument("--events", required=True)
    analyze.add_argument("--csv", required=True)
    analyze.set_defaults(handler=_cmd_analyze, outputs=("csv",))
    return parser


def _load_scenario(spec: str) -> Scenario:
    if Path(spec).is_file():
        return Scenario.from_file(spec)
    if spec in BUILTIN_SCENARIOS:
        return Scenario.builtin(spec)
    raise ConfigError(f"scenario {spec!r} is neither a file nor a built-in name")


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    config = load_config_dict(args.config)
    detector = config_from_dict(config, vocab_size=scenario.vocab_size).detector
    records, truth = generate(scenario, detector=detector)
    # Each record is written to the trace as it is generated, then run.
    try:
        with open(args.trace, "w", encoding="utf-8") if args.trace else nullcontext() as fh:
            events, summary = replay_stream(trace_lines(records, fh), config)
    except MemoryError as exc:
        raise ConfigError(f"vocab_size {scenario.vocab_size} cannot be allocated: {exc}") from None
    metrics = evaluate(events, truth)
    if args.events:
        write_events(events, args.events)
    if args.csv:
        export_csv(events, args.csv)
    print(json.dumps({"summary": asdict(summary), "metrics": asdict(metrics)}, indent=2))
    return EXIT_OK


def _cmd_replay(args) -> int:
    events, summary = replay_trace(args.trace, load_config_dict(args.config))
    if args.events:
        write_events(events, args.events)
    if args.csv:
        export_csv(events, args.csv)
    print(json.dumps({"summary": asdict(summary)}, indent=2))
    return EXIT_OK


def _cmd_serve(args) -> int:
    return serve_stdio(load_config_dict(args.config))


def _cmd_analyze(args) -> int:
    events = read_events(args.events)
    rows = export_csv(events, args.csv)
    print(json.dumps({"rows": rows, "csv": args.csv}, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Each output is opened (without truncating it) before any input is read,
    # so a bad path fails before any work is done and an output that is also
    # an input is still read whole.
    for path in filter(None, (getattr(args, name) for name in args.outputs)):
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"spreg: cannot write {path}: {exc.strerror}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"spreg: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceFormatError, ProtocolError) as exc:
        print(f"spreg: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
