#!/usr/bin/env python3
"""Step-cost benchmark for spreg.

spreg runs beside a host sampler and costs the host time on every token.
This benchmark drives one closed-loop stream (one host, one stream) on a
workload and reports what the host pays per step, and, in a separate
traced run, where that time goes layer by layer.

Workloads (inputs are generated from --seed; see streams.py):

  quiet-1k    in-process Controller, |V|=1024, healthy ~1-nat stream, each
              sampled token reported through notify_sampled; never intervenes.
  spiky-128k  in-process Controller, |V|=131072, a spike after every
              cooldown (3-step repairs, host reference on every other one)
              and a slow drift that ends in aggressive recovery every eighth
              episode; token info inline.
  wire-32k    the spiky stream at |V|=32768 sent as JSON frames to a
              `python -m spreg serve --stdio` subprocess over OS pipes.

BENCHMARK.json gates spiky-128k and wire-32k. quiet-1k runs the same way
but is left out of the gate: its steps are pure interpreter work, and on
a host whose cores are shared with other tenants their latency drifts
with the neighbours' load by more than any bound the gate allows.

Run from the repository root:

  python3 perfbench/run.py --workload spiky-128k --seed 1 --seconds 45 --trace 0

End-to-end metrics (--trace 0): setup_s, the median time for a fresh
interpreter to import spreg and make a stream ready for step 0 (a
Controller in-process; spawn plus init->ready on the wire); step_us_p50
and step_us_p99 over every step of the run; stream_mem_mb, the memory a
stream retains after its first 120 steps, taken with tracemalloc after
the timed interval (on the wire, that of a serve_stdio session run
in-process, so the session and its decoder are counted). Per-layer
metrics (--trace 1) are mean self times per traced step; see tracing.py.
BENCHMARK.json names the metrics of the JSON result and their units.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0 and the per-layer metrics with --trace 1. The lines before it
name every measured figure with its unit, including those reported only
where they are defined (intervened-step latency, detection scores).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

# One stream takes one core, as a host sampler beside a model would give
# it: BLAS may not spread a dot product over a second core. Set before
# numpy loads; the server and set-up subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("quiet-1k", "spiky-128k", "wire-32k")
MIN_INTERVENED = 100  # intervened-step percentiles need this many samples

# Figures printed on the report lines but not in the JSON result: defined
# only on some workloads or runs, fixed by the schedule, or counts that
# grow with speed. BENCHMARK.json names the metrics and their units.
REPORT_UNITS = {
    "steps_per_s": "1/s",
    "steps": "count",
    "intervened_steps": "count",
    "intervened_us_p50": "us",
    "intervened_us_p90": "us",
    "failed_step_frac": "ratio",
    "spike_recall": "ratio",
    "spike_precision": "ratio",
    "controller.notify_sampled_us": "us",
    "detector.triggers_per_step": "1/step",
    "detector.continues_per_step": "1/step",
    "detector.aggressive_per_step": "1/step",
    "repair.ref_external_frac": "ratio",
    "repair.ref_pool_frac": "ratio",
    "repair.ref_uniform_frac": "ratio",
    "trace.steps": "count",
    "trace.root_us": "us",
}


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the JSON metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _pct(values_ns, q: float) -> float:
    """Percentile of nanosecond samples, in microseconds."""
    return float(np.percentile(values_ns, q)) / 1e3


def step_figures(run) -> tuple[dict[str, float], dict[str, float]]:
    """(end-to-end metrics, report-only figures) of one stream."""
    lat = run.latency_ns
    metrics = {"step_us_p50": _pct(lat, 50), "step_us_p99": _pct(lat, 99)}
    report = {"steps_per_s": len(lat) / (sum(lat) / 1e9)}
    if len(run.intervened_ns) >= MIN_INTERVENED:
        report["intervened_us_p50"] = _pct(run.intervened_ns, 50)
        report["intervened_us_p90"] = _pct(run.intervened_ns, 90)
    return metrics, report


def _overhead(traced_ns, untraced_ns) -> float:
    return statistics.median(traced_ns) / statistics.median(untraced_ns) - 1.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (runs, metrics, extra report figures)."""
    import runners
    import streams
    from tracing import Tracer, installed, layer_metrics

    bank = streams.make_bank(workload, seed)

    def steps():
        return streams.schedule(workload, bank, seed)

    notify = workload == "quiet-1k"
    wire = workload == "wire-32k"

    if wire:
        frames = runners.Frames(bank)
        if not trace:
            setup = runners.server_setup_s(bank.vocab_size)
            run, answers = runners.drive_server(bank, frames, steps(), seconds)
            runners.compare_in_process(run, bank, frames, answers)
            runs = [run]
        else:
            wired, answers = runners.drive_server(bank, frames, steps(), seconds / 3)
            runners.compare_in_process(wired, bank, frames, answers)
            plain = runners.drive_serve_in_process(bank, frames, steps(), seconds / 3, Tracer())
            tracer = Tracer()
            with installed(tracer):
                traced = runners.drive_serve_in_process(bank, frames, steps(), seconds / 3, tracer)
            runs = [wired, plain.run, traced.run]
    else:
        if not trace:
            setup = runners.controller_setup_s(bank.vocab_size)
            runs = [runners.drive_controller(bank, steps(), seconds, notify)]
        else:
            plain = runners.drive_controller(bank, steps(), seconds / 2, notify)
            tracer = Tracer()
            with installed(tracer):
                traced = runners.drive_controller(bank, steps(), seconds / 2, notify, tracer)
            runs = [plain, traced]

    main = runs[0]
    if not trace:
        metrics, report = step_figures(main)
        metrics["setup_s"] = setup
        if wire:
            metrics["stream_mem_mb"] = runners.serve_memory_mb(bank, frames, steps)
        else:
            metrics["stream_mem_mb"] = runners.stream_memory_mb(bank, steps(), notify)
    else:
        metrics = layer_metrics(tracer)
        roots = list(tracer.root_time_per_step().values())
        report = {name: metrics.pop(name) for name in REPORT_UNITS if name in metrics}
        if wire:
            untraced = plain.run.latency_ns
            metrics["trace_io.bytes_in_per_step"] = plain.bytes_in / max(len(untraced), 1)
            metrics["trace_io.bytes_out_per_step"] = plain.bytes_out / max(len(untraced), 1)
            metrics["trace_io.pipe_us"] = (
                statistics.fmean(wired.latency_ns) - statistics.fmean(untraced)
            ) / 1e3
        else:
            untraced = plain.latency_ns
            for name in ("trace_io.bytes_in_per_step", "trace_io.bytes_out_per_step", "trace_io.pipe_us"):
                metrics[name] = 0.0
        metrics["trace_overhead_frac"] = _overhead(roots, untraced)
        tracer.write(Path(__file__).resolve().parent / "out" / f"spans-{workload}.tsv.gz")

    recall, precision = main.detection()
    report.update(
        {
            "steps": len(main.latency_ns),
            "intervened_steps": len(main.intervened_ns),
            "failed_step_frac": sum(r.failed for r in runs) / max(sum(r.attempted for r in runs), 1),
            "spike_recall": recall,
            "spike_precision": precision,
        }
    )
    return runs, metrics, report


def is_correct(workload: str, runs, report) -> bool:
    if any(r.failed for r in runs) or not all(r.latency_ns for r in runs):
        return False
    if workload == "quiet-1k":
        return report["intervened_steps"] == 0
    return report["spike_recall"] == 1.0 and report["spike_precision"] == 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "spreg" / "__init__.py").is_file():
        print(f"perfbench: no spreg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    units = metric_units(bool(args.trace))
    runs, metrics, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, value in {**metrics, **report}.items():
        print(f"{name:34s} {value:14.6g} {units.get(name) or REPORT_UNITS[name]}")
    for run in runs:
        for problem in run.problems:
            print(f"failed: {problem}")
    result = {
        "correct": is_correct(args.workload, runs, report),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
