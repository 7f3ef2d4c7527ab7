"""Streaming entropy statistics for one decoding stream.

The window tracks the most recent W entropy values and exposes their
population mean and standard deviation; a short tail of recent values is
kept separately so the caller can fit an entropy gradient that includes
the value of the current (not yet pushed) step. Statistics are
recomputed over the few retained entries each time they are read, so
they match a batch oracle exactly and cannot drift.

Values are trusted: the controller pushes only the finite entropies of
validated steps. State is per-stream and not thread-safe; distinct windows
are independent.
"""

from __future__ import annotations

import math
from collections import deque

__all__ = ["EntropyWindow", "entropy_gradient"]


class EntropyWindow:
    """Ring buffer of recent entropy values; ``stats()`` derives (mu, sigma) from it."""

    def __init__(self, capacity: int = 10, tail_size: int = 5):
        self._entries: deque[float] = deque(maxlen=capacity)
        self._tail: deque[float] = deque(maxlen=tail_size)

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, value: float) -> None:
        self._entries.append(value)
        self._tail.append(value)

    def stats(self) -> tuple[float | None, float | None]:
        """Population mean and std over the current entries.

        A single-entry window reports sigma = 0; an empty one (None, None).
        """
        n = len(self._entries)
        if not n:
            return None, None
        mu = math.fsum(self._entries) / n
        var = math.fsum((x - mu) ** 2 for x in self._entries) / n
        return mu, math.sqrt(var)

    def tail(self, count: int) -> tuple[float, ...]:
        """The most recent pushed values, up to ``count`` >= 1 of them."""
        return tuple(self._tail)[-count:]


def entropy_gradient(values) -> float:
    """Least-squares slope of a series (at least 2 values) against 0..len-1."""
    seq = list(values)
    count = len(seq)
    x_bar = (count - 1) / 2.0
    y_bar = math.fsum(seq) / count
    num = math.fsum((i - x_bar) * (y - y_bar) for i, y in enumerate(seq))
    den = math.fsum((i - x_bar) ** 2 for i in range(count))
    return num / den
