#!/usr/bin/env python3
"""Run the benchmark over several seeds and record the results.

For every workload in BENCHMARK.json this runs the benchmark command
untraced on seeds 1..SEEDS and traced on seed 1, interleaving workloads
so that slow drifts of the host's speed spread evenly over them. It
writes the environment and, for each workload, metric and report-only
figure (step and intervened-step counts among them), the median, quartiles and spread (interquartile
range over the median) as JSON.

    python3 perfbench/baseline.py --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from run import REPORT_UNITS

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10
TRACED_SEEDS = 1


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result line, report figures) of one benchmark run."""
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    report = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith(("#", "failed:")):
            report[parts[0]] = float(parts[1])
    return json.loads(lines[-1]), report


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "runs": len(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    collected = {w: {0: [], 1: []} for w in why}
    for seed in range(1, SEEDS + 1):
        for workload in why:
            for trace in (0, 1) if seed <= TRACED_SEEDS else (0,):
                result, report = run_once(spec, workload, seed, trace)
                collected[workload][trace].append((result, report))
                shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(workload, seed, trace, result["correct"], result["failed"],
                      shown if not trace else "", file=sys.stderr, flush=True)

    out = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "run_seconds": spec["run_seconds"],
            "seeds": list(range(1, SEEDS + 1)),
        },
        "workloads": {},
    }
    for workload, by_trace in collected.items():
        runs = by_trace[0]
        entry = {
            "why": why[workload],
            "all_correct": all(r["correct"] and r["failed"] == 0 for r, _ in runs + by_trace[1]),
        }
        for key, pairs in (("end_to_end", runs), ("per_layer", by_trace[1])):
            entry[key] = {}
            entry[key + "_report_only"] = {}
            for name, body in pairs[0][0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r, _ in pairs]
                entry[key][name] = {"unit": body["unit"], **summarize(values)}
            for name, unit in REPORT_UNITS.items():
                values = [rep[name] for _, rep in pairs if name in rep]
                if values:
                    entry[key + "_report_only"][name] = {"unit": unit, **summarize(values)}
        out["workloads"][workload] = entry
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
