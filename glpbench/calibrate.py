"""Host-speed reference for the timing metrics.

The shared host this benchmark runs on flips between a fast and a slower
mode (about 1.4x apart), often within a second, and spends more or less of
its time in the slow mode from one minute to the next; CPU time and wall
time alike, so it is not time stolen from the process.  Two runs of the same
code then differ by more than any regression worth catching.  So a run
times a fixed reference kernel every `EVERY_S` seconds between cases, after
each round and around each set-up repetition, and scales its timing metrics
by `NOMINAL_S` over the mean kernel time: each round's rate by the kernel
times taken during that round, latencies and set-up time by those of the
whole run.  They then read as on a host where the kernel takes `NOMINAL_S`:
a change in the library moves them, a change in how much of the run the
host spent in its slow mode mostly does not.

The kernel does a little of each kind of work the library spends its time
on: interpreted integer loops, big-integer arithmetic, small numpy vectors
and Fractions.  It is the benchmark's own code and never calls the library.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.020
EVERY_S = 0.5


def kernel() -> int:
    s, seen = 0, {}
    for i in range(40_000):
        s = (s * 31 + i) % 1_000_003
        seen[i & 255] = s
    x, m = 3**400, 7**300 + 12_345
    for _ in range(1_500):
        x = x * x % m
    a = np.arange(1, 30, dtype=np.int64)
    for _ in range(1_500):
        a = np.convolve(a, a)[:29] % 10_007
        a[0] += 1
    q = Fraction(0)
    for i in range(1, 1_500):
        q += Fraction(1, i)
        q = Fraction(q.numerator % 1_000_003, q.denominator % 1_000_003 or 1)
    return s + x % 7 + int(a[0]) + q.numerator


class HostClock:
    """Reference-kernel times taken along a run."""

    def __init__(self):
        self.refs: list[float] = []
        self.last = -math.inf

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.refs.append(self.last - t0)

    def tick(self) -> None:
        """Calibrate if the last reference is older than EVERY_S."""
        if time.perf_counter() - self.last > EVERY_S:
            self.calibrate()

    def speed(self, since: int = 0) -> float:
        """Host speed over the references from `since` on, nominal = 1:
        multiply a time by it, divide a rate by it."""
        return NOMINAL_S / statistics.fmean(self.refs[since:])
