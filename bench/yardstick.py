"""A fixed piece of pure-Python work that measures the machine's speed.

The sandbox this benchmark was built on changes speed by 15-35% over
minutes, for reasons outside the process (CPU time moves with wall
time, and nothing else runs in the container).  A run therefore
interleaves this kernel with the operations it times, about every 50
ms, and reports timings scaled to a reference speed: a rate is divided
by `speed()`, a duration multiplied by it.  The kernel uses only the
standard library and the same kinds of work as the package (exact
fractions, integer row operations, tuples, dicts and string
formatting), so a change to the package cannot move it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

EVERY_S = 0.05           # between samples
CALLS = 5                # kernel calls per sample
WINDOW_S = 0.5           # samples this close to a call measure its speed
REFERENCE_RATE = 1000.0  # kernel calls per second at the reference speed


def kernel():
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    for r in range(12):
        m = [[(i * 7 + j * 3 + r) % 11 - 5 for j in range(4)] for i in range(4)]
        for c in range(4):
            for i in range(c + 1, 4):
                while m[i][c]:
                    q = m[c][c] // m[i][c]
                    m[c] = [a - q * b for a, b in zip(m[c], m[i])]
                    m[c], m[i] = m[i], m[c]
    table = {}
    for i in range(300):
        table[(i, i % 7)] = f"{i}/{i + 1}"
    return acc, table


class Yardstick:
    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.due = 0.0
        # sample midpoints, and running totals of calls and seconds
        self.mids: list[float] = []
        self.total_calls = [0]
        self.total_seconds = [0.0]
        for _ in range(CALLS):  # the first calls of a process run cold
            kernel()

    def sample(self, calls: int = CALLS) -> None:
        start = perf_counter()
        for _ in range(calls):
            kernel()
        end = perf_counter()
        self.calls += calls
        self.seconds += end - start
        self.due = end + EVERY_S
        self.mids.append((start + end) / 2)
        self.total_calls.append(self.calls)
        self.total_seconds.append(self.seconds)

    def pace(self) -> None:
        """Sample when EVERY_S has passed since the last sample."""
        if perf_counter() >= self.due:
            self.sample()

    def speed(self) -> float:
        """Measured rate over the reference rate: below 1 on a slow machine."""
        return self.calls / self.seconds / REFERENCE_RATE

    def speed_around(self, start: float, end: float) -> float:
        """The speed measured by the samples within WINDOW_S of [start, end],
        or by the nearest sample when none is that close."""
        lo = bisect_left(self.mids, start - WINDOW_S)
        hi = bisect_right(self.mids, end + WINDOW_S)
        if hi == lo:
            lo = max(0, min(lo, len(self.mids) - 1))
            hi = lo + 1
        calls = self.total_calls[hi] - self.total_calls[lo]
        seconds = self.total_seconds[hi] - self.total_seconds[lo]
        return calls / seconds / REFERENCE_RATE
