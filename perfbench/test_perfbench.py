"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import runners
import streams
import tracing

HERE = Path(__file__).resolve().parent


def _steps(workload, bank, seed, n):
    return list(islice(streams.schedule(workload, bank, seed), n))


@pytest.mark.parametrize("workload", ["quiet-1k", "wire-32k"])
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    a, b, c = (streams.make_bank(workload, seed) for seed in (3, 3, 4))
    assert all(np.array_equal(x, y) for x, y in zip(a.vectors, b.vectors))
    assert all(x.dtype == np.float32 for x in a.vectors)
    assert _steps(workload, a, 3, 800) == _steps(workload, b, 3, 800)
    assert not np.array_equal(a.vectors[0], c.vectors[0])
    assert _steps(workload, a, 3, 800) != _steps(workload, c, 4, 800)


def test_streams_use_more_distinct_vectors_than_the_pool_holds():
    bank = streams.make_bank("quiet-1k", 5)
    used = {st.vec for st in _steps("quiet-1k", bank, 5, 2000)}
    distinct = {bank.vectors[i].tobytes() for i in used}
    assert len(distinct) > 32


def test_quiet_stream_never_intervenes():
    bank = streams.make_bank("quiet-1k", 11)
    run = runners.drive_controller(bank, _steps("quiet-1k", bank, 11, 1500), 600, notify=True)
    assert run.failed == 0, run.problems
    assert len(run.latency_ns) == 1500
    assert len(run.intervened_ns) == 0


def test_spiky_stream_fires_on_schedule_with_aggressive_recovery():
    bank = streams.make_bank("spiky-128k", 2)
    steps = _steps("spiky-128k", bank, 2, 420)
    assert any(st.mode == streams.AGGRESSIVE for st in steps)
    run = runners.drive_controller(bank, steps, 600, notify=False)
    assert run.failed == 0, run.problems
    assert run.detection() == (1.0, 1.0)
    assert len(run.spikes) >= 8
    assert len(run.intervened_ns) == sum(st.mode != streams.NONE for st in steps)


def test_wire_answers_match_an_in_process_controller():
    bank = streams.make_bank("wire-32k", 6)
    frames = runners.Frames(bank)
    run, answers = runners.drive_server(bank, frames, _steps("wire-32k", bank, 6, 60), 600)
    runners.compare_in_process(run, bank, frames, answers)
    assert run.failed == 0, run.problems
    assert len(answers) == 60 and any(logits is not None for _, _, logits in answers)


def test_wire_memory_counts_the_serve_session(monkeypatch):
    monkeypatch.setattr(runners, "MEMORY_STEPS", 40)
    bank = streams.make_bank("wire-32k", 6)
    served = runners.serve_memory_mb(
        bank, runners.Frames(bank), lambda: streams.schedule("wire-32k", bank, 6)
    )
    bare = runners.stream_memory_mb(bank, streams.schedule("wire-32k", bank, 6), notify=False)
    assert bare > 1.0
    assert served > bare


def test_trace_wrappers_restore_every_attribute():
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in tracing.traced_attributes()]
    bank = streams.make_bank("wire-32k", 1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert any(vars(owner)[attr] is not obj for owner, attr, obj in before)
        runners.drive_serve_in_process(
            bank, runners.Frames(bank), iter(_steps("wire-32k", bank, 1, 50)), 600, tracer
        )
    assert all(vars(owner)[attr] is obj for owner, attr, obj in before)
    assert tracer.names


@pytest.mark.parametrize("workload", ["quiet-1k", "spiky-128k"])
def test_self_times_add_up_to_the_traced_step(workload):
    bank = streams.make_bank(workload, 8)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        run = runners.drive_controller(
            bank, _steps(workload, bank, 8, 120), 600, workload == "quiet-1k", tracer
        )
    assert run.failed == 0, run.problems
    metrics = tracing.layer_metrics(tracer)
    assert metrics["trace.steps"] == 120
    total = sum(metrics[name] for name in tracing.SELF_METRICS.values())
    assert total == pytest.approx(metrics["trace.root_us"], rel=1e-9)
    assert metrics["distributions.entropy_us"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "quiet-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
