"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately naive and recomputes from scratch each
step; nothing is shared with the package's implementation paths, except
that ``oracle_pool_reference`` normalizes with the package's
``log_softmax`` so that the aggregation it checks can be compared exactly.
"""

from __future__ import annotations

import math

import numpy as np

from spreg.distributions import log_softmax


def naive_entropy(logits) -> float:
    """Two-pass probability-space entropy in extended precision."""
    z = np.asarray(logits, dtype=np.longdouble)
    p = np.exp(z - z.max())
    p = p / p.sum()
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())


def naive_entropy_f64(logits) -> float:
    """Two-pass probability-space entropy, plain float64."""
    z = np.asarray(logits, dtype=np.float64)
    p = np.exp(z - z.max())
    p = p / p.sum()
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())


def naive_slope(values) -> float:
    """Closed-form least-squares slope against x = 0..n-1 via polyfit."""
    y = np.asarray(values, dtype=np.float64)
    x = np.arange(y.size, dtype=np.float64)
    return float(np.polyfit(x, y, 1)[0])


def naive_log_softmax(logits) -> np.ndarray:
    """Log-probabilities by an explicit max-shifted log-sum-exp, plain float64."""
    z = np.asarray(logits, dtype=np.float64)
    m = z.max()
    return z - (m + np.log(np.exp(z - m).sum()))


def naive_token_weights(reference, normalized_entropy: float, eta: float) -> np.ndarray:
    """Guidance weights 1 + eta * H_norm * (ref - mean) / (std + 1e-6), in
    extended precision, returned as float64."""
    ref = np.asarray(reference, dtype=np.longdouble)
    centered = ref - ref.mean()
    std = np.sqrt((centered * centered).mean())
    return (1 + eta * normalized_entropy * centered / (std + 1e-6)).astype(np.float64)


def naive_cfg(cond, uncond, gamma: float) -> np.ndarray:
    """Fixed-scale classifier-free guidance in log-probability space.

    log p_hat = log p_uncond + gamma * (log p_cond - log p_uncond), with
    each log-probability normalized by ``naive_log_softmax``.
    """
    lc, lu = naive_log_softmax(cond), naive_log_softmax(uncond)
    return lu + gamma * (lc - lu)


def oracle_pool_row(row) -> np.ndarray:
    """A row as the pool stores it, widened back to float64.

    A row is a distribution's log-probs up to any per-row constant, such
    as the logits minus their max. Each value is rounded to float32; one
    below float32's range (which would round to -inf) becomes
    ``-finfo(float32).max``.
    """
    with np.errstate(over="ignore"):
        rounded = np.asarray(row, dtype=np.float64).astype(np.float32)
    floor = -np.finfo(np.float32).max
    return np.where(rounded < floor, floor, rounded).astype(np.float64)


def oracle_pool_reference(entries, capacity: int) -> np.ndarray:
    """Reference of a pool that recorded ``entries`` in order.

    ``entries`` is an (n, |V|) array of rows, n >= 0, each a
    distribution's log-probs up to any per-row constant. The last
    ``capacity`` rows are rounded as the pool stores them
    (``oracle_pool_row``), stacked, averaged over axis 0 and normalized;
    an empty pool is uniform.
    """
    stacked = np.asarray(entries, dtype=np.float64)[-capacity:]
    if len(stacked) == 0:
        vocab = stacked.shape[1]
        return np.full(vocab, -math.log(vocab))
    rounded = np.stack([oracle_pool_row(row) for row in stacked])
    return log_softmax(rounded.mean(axis=0))


# Position ties between step types break in this order, highest first.
_STEP_ORDER = ("conclusion", "action", "observation", "reasoning")


def oracle_last_match(patterns, text: str):
    """Step type of the right-most cue match in ``text``, or None.

    A full rescan: every compiled cue of ``patterns`` runs ``finditer``
    over all of ``text``; ties at the same start go to the step type
    earlier in ``_STEP_ORDER``.
    """
    best = None  # (start, -order)
    best_step = None
    for step, pattern in patterns._patterns:
        starts = [m.start() for m in pattern.finditer(text)]
        if not starts:
            continue
        key = (starts[-1], -_STEP_ORDER.index(step.value))
        if best is None or key > best:
            best, best_step = key, step
    return best_step


def naive_window_stats(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def oracle_decisions(h_seq, cfg) -> list[dict]:
    """Replay the warmup/monitor/repair/cooldown machine over an entropy series.

    Returns one dict per step: phase, kind, duration, repair_index. Window
    statistics and the gradient are recomputed from explicit history
    slices every step.
    """
    series = np.asarray(h_seq, dtype=np.float64)
    n = series.size
    x_dev = np.arange(cfg.n_grad) - (cfg.n_grad - 1) / 2.0
    x_den = float(np.dot(x_dev, x_dev))

    # Full-window stats and gradients for every step, recomputed in batch.
    mus: list[float | None] = [None] * n
    sigmas: list[float | None] = [None] * n
    for t in range(1, min(cfg.window, n)):
        mus[t] = float(np.mean(series[:t]))
        sigmas[t] = float(np.std(series[:t]))
    if n > cfg.window:
        view = np.lib.stride_tricks.sliding_window_view(series, cfg.window)
        full_mu = view.mean(axis=1)
        full_sigma = view.std(axis=1)
        for t in range(cfg.window, n):
            mus[t] = float(full_mu[t - cfg.window])
            sigmas[t] = float(full_sigma[t - cfg.window])
    grads: list[float | None] = [None] * n
    if n >= cfg.n_grad:
        gview = np.lib.stride_tricks.sliding_window_view(series, cfg.n_grad)
        gvals = (gview - gview.mean(axis=1, keepdims=True)) @ x_dev / x_den
        for t in range(cfg.n_grad - 1, n):
            grads[t] = float(gvals[t - cfg.n_grad + 1])

    out: list[dict] = []
    repair_left = 0
    cool_left = 0
    repair_count = 0
    count = 0
    for t in range(n):
        h = float(series[t])
        mu, sigma, gradient = mus[t], sigmas[t], grads[t]
        count = count + 1 if (mu is not None and h > mu) else 0

        step = {"phase": "monitoring", "kind": "no_action", "duration": None, "repair_index": None}
        if t < cfg.t_warm:
            step["phase"] = "warmup"
        elif repair_left > 0:
            repair_left -= 1
            if repair_left == 0:
                cool_left = cfg.t_cool
            step.update(phase="repairing", kind="continue_repair", repair_index=repair_count - 1)
        elif cool_left > 0:
            cool_left -= 1
            step["phase"] = "cooldown"
        elif count >= cfg.c_high:
            cool_left = cfg.t_cool
            count = 0
            step["kind"] = "aggressive_recover"
        else:
            surge = gradient is None or gradient >= cfg.g_min or h >= cfg.h_extreme
            spiking = (
                mu is not None
                and h > mu + cfg.alpha * sigma
                and h >= cfg.h_min
            )
            if surge and spiking:
                excess = (h - (mu + cfg.alpha * sigma)) / (sigma + 1e-6)
                duration = 1 if excess < 1.0 else (2 if excess < 2.0 else 3)
                step.update(
                    kind="trigger_repair", duration=duration, repair_index=repair_count
                )
                repair_count += 1
                repair_left = duration - 1
                if repair_left == 0:
                    cool_left = cfg.t_cool
        out.append(step)
    return out


def random_h_seq(rng: np.random.Generator) -> np.ndarray:
    """Entropy-like series mixing flat, drifting, and spiky regimes."""
    n = int(rng.integers(20, 120))
    kind = int(rng.integers(3))
    base = float(rng.uniform(0.4, 2.6))
    noise = rng.normal(0.0, rng.uniform(0.01, 0.4), n)
    if kind == 0:
        h = base + noise
    elif kind == 1:
        h = base + rng.uniform(0.0, 0.06) * np.arange(n) + noise
    else:
        h = base + noise
        for step in rng.choice(n, size=max(1, n // 25), replace=False):
            h[step] += rng.uniform(0.5, 3.0)
    return np.clip(h, 0.0, None)
