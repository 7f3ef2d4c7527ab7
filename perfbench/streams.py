"""Seeded logit streams for the step-cost benchmark.

A workload's inputs are a bank of distinct float32 logit vectors, built
once per run, and a step schedule that indexes into the bank. The
schedule is produced lazily, so a run can take as many steps as its time
allows; the same seed always yields the same bank and the same sequence
of steps.

Entropy levels are placed with margins against the default detector
thresholds (window 10, alpha 1.5, h_min 2.0, g_min 0.3, h_extreme 3.5,
t_cool 30, c_high 50), so the expected mode of every step is known from
the schedule alone:

* quiet steps sit in [0.75, 1.25] nats, below h_min, so they never fire;
* a spike sits in [4.0, 4.6] nats, above h_extreme, with an excess of
  many window sigmas, so it triggers a 3-step repair;
* a drift rises 0.02 nats per step from 1.3 nats after a dip, so every
  step is above the window mean while its gradient stays under g_min and
  its level under h_extreme; the 50th drift step fires aggressive
  recovery.

Vectors are rolled copies of one scaled base profile: a roll changes the
argmax (the token the host samples) but not the entropy, so one fit of
scale against entropy serves every vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

NONE, REPAIR, AGGRESSIVE = "none", "repair", "aggressive"
EXTERNAL, POOL = "external", "pool"

QUIET_LEVELS = (0.75, 1.25)
SPIKE_LEVELS = (4.0, 4.6)
REF_LEVELS = (1.0, 1.5)
DIP_LEVEL = 0.6
DRIFT_START, DRIFT_SLOPE, DRIFT_STEPS = 1.3, 0.02, 55
# With the dip resetting the counter, the 50th above-mean step escalates.
AGGRESSIVE_AT = 49
REPAIR_STEPS = 3
COOLDOWN = 30
FIRST_EVENT = 40
DRIFT_EVERY = 8  # every eighth episode is a drift instead of a spike
N_QUIET, N_SPIKE, N_REF = 48, 6, 6
LOOP_PERIOD = 3

# Decoded text of sampled tokens. The cue words move the plan tracker
# between step types, as real reasoning text does.
WORDS = (
    " the", " value", " is", " of", " a", " we", " so", " and", " to", " x",
    " Let", " me", " think", " first", " Step", " 2", ":", " tool", " call",
    "(", ")", " result", " =>", " output", " therefore", " thus", " answer",
    " is", " 42", ".", "\n", " def", " f", "```", " import", " numpy",
)


def entropy(z: np.ndarray) -> float:
    """Shannon entropy of softmax(z) in nats, computed in float64."""
    s = z.astype(np.float64)
    s -= s.max()
    e = np.exp(s)
    total = e.sum()
    return float(np.log(total) - np.dot(e, s) / total)


@dataclass
class Bank:
    """Distinct float32 logit vectors and the entropy each really has."""

    vectors: list[np.ndarray]
    entropies: list[float]
    argmax: list[int]
    quiet: list[int]
    spike: list[int]
    drift: list[int]
    refs: list[int]
    dip: int

    @property
    def vocab_size(self) -> int:
        return self.vectors[0].size


def build_bank(vocab_size: int, seed: int) -> Bank:
    rng = np.random.default_rng([seed, vocab_size])
    base = rng.standard_normal(vocab_size)
    anchors = rng.choice(vocab_size, 8, replace=False)
    base[anchors] = 6.0 - 0.25 * np.arange(8)
    top = int(anchors[0])

    # Entropy falls monotonically with the scale; fit it on a grid once.
    scales = np.geomspace(0.5, 12.0, 96)
    grid = np.array([entropy(s * base) for s in scales])

    def scale_for(level: float) -> float:
        return float(np.exp(np.interp(level, grid[::-1], np.log(scales[::-1]))))

    vectors: list[np.ndarray] = []
    entropies: list[float] = []
    argmax: list[int] = []
    used: set[int] = set()

    def add(level: float, token: int | None = None) -> int:
        if token is None:
            token = int(rng.integers(vocab_size))
            while token in used:
                token = int(rng.integers(vocab_size))
        used.add(token)
        vec = np.roll(scale_for(level) * base, token - top).astype(np.float32)
        vectors.append(vec)
        entropies.append(entropy(vec))
        argmax.append(int(np.argmax(vec)))
        return len(vectors) - 1

    quiet = [add(h) for h in rng.uniform(*QUIET_LEVELS, N_QUIET)]
    spike = [add(h) for h in rng.uniform(*SPIKE_LEVELS, N_SPIKE)]
    refs = [add(h) for h in rng.uniform(*REF_LEVELS, N_REF)]
    dip = add(DIP_LEVEL)
    loop = rng.choice(vocab_size, LOOP_PERIOD, replace=False)
    drift = []
    for i in range(DRIFT_STEPS):
        # The loop tokens repeat, so their distinct vectors share argmaxes.
        used.discard(int(loop[i % LOOP_PERIOD]))
        drift.append(add(DRIFT_START + DRIFT_SLOPE * i, int(loop[i % LOOP_PERIOD])))
    bank = Bank(vectors, entropies, argmax, quiet, spike, drift, refs, dip)
    _check_levels(bank)
    return bank


def _check_levels(bank: Bank) -> None:
    """The margins the schedule relies on hold for the measured entropies."""
    h = bank.entropies
    quiet = [h[i] for i in bank.quiet]
    drift = [h[i] for i in bank.drift]
    ok = (
        max(quiet) < 1.3
        and min(h[i] for i in bank.spike) > 3.6
        and h[bank.dip] < min(quiet)
        and drift[0] > max(quiet)
        and max(drift) < 3.0
        and all(0.0 < b - a < 0.1 for a, b in zip(drift, drift[1:]))
    )
    if not ok:
        raise RuntimeError("generated entropy levels miss the schedule's margins")


@dataclass(frozen=True)
class Step:
    """One step of a stream, with what the controller must do on it.

    ``token_id``/``token_text`` describe the token the host sampled at
    t-1 (None at t=0); ``ref`` indexes a bank reference vector or is None.
    """

    t: int
    vec: int
    ref: int | None
    token_id: int | None
    token_text: str | None
    mode: str
    source: str | None
    spike: bool


def quiet_steps(bank: Bank, seed: int) -> Iterator[Step]:
    """A healthy low-entropy stream: no step may be intervened."""
    rng = np.random.default_rng([seed, 1])
    prev = None
    t = 0
    while True:
        vec = bank.quiet[int(rng.integers(len(bank.quiet)))]
        text = WORDS[int(rng.integers(len(WORDS)))]
        yield Step(t, vec, None, *(prev or (None, None)), NONE, None, False)
        prev = (bank.argmax[vec], text)
        t += 1


def spiky_steps(bank: Bank, seed: int) -> Iterator[Step]:
    """Quiet base with spikes after each cooldown and periodic drifts.

    Spike episodes alternate between a host-supplied reference and the
    pool; every DRIFT_EVERY-th episode is a drift that ends in aggressive
    recovery instead.
    """
    rng = np.random.default_rng([seed, 2])
    t = 0
    prev: tuple[int, str] | None = None
    free_at = FIRST_EVENT  # first step the detector is out of cooldown

    def step(vec, ref=None, mode=NONE, source=None, spike=False) -> Step:
        nonlocal t, prev
        out = Step(t, vec, ref, *(prev or (None, None)), mode, source, spike)
        prev = (bank.argmax[vec], WORDS[int(rng.integers(len(WORDS)))])
        t += 1
        return out

    def quiet():
        return bank.quiet[int(rng.integers(len(bank.quiet)))]

    episode = 0
    while True:
        start = free_at + int(rng.integers(2))
        drift = episode % DRIFT_EVERY == DRIFT_EVERY - 1
        while t < start - 1:
            yield step(quiet())
        # The step before an episode is quiet; before a drift it is a dip,
        # which resets the above-mean counter.
        yield step(bank.dip if drift else quiet())
        if drift:
            for i, vec in enumerate(bank.drift):
                if i == AGGRESSIVE_AT:
                    yield step(vec, mode=AGGRESSIVE, source=POOL)
                else:
                    yield step(vec)
            free_at = start + AGGRESSIVE_AT + 1 + COOLDOWN
        else:
            external = episode % 2 == 0
            source = EXTERNAL if external else POOL
            ref = bank.refs[int(rng.integers(len(bank.refs)))] if external else None
            spike_vec = bank.spike[int(rng.integers(len(bank.spike)))]
            yield step(spike_vec, ref, REPAIR, source, spike=True)
            for _ in range(REPAIR_STEPS - 1):
                yield step(quiet(), ref, REPAIR, source)
            free_at = t + COOLDOWN
        episode += 1


WORKLOADS = {
    "quiet-1k": (1024, quiet_steps),
    "spiky-128k": (131072, spiky_steps),
    "wire-32k": (32768, spiky_steps),
}


def make_bank(workload: str, seed: int) -> Bank:
    return build_bank(WORKLOADS[workload][0], seed)


def schedule(workload: str, bank: Bank, seed: int) -> Iterator[Step]:
    """A fresh pass over the workload's steps, from t=0."""
    return WORKLOADS[workload][1](bank, seed)
