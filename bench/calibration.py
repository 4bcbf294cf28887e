"""Machine-speed calibration for the benchmark's timings.

On a shared runner the same computation can run up to 1.7 times slower for
seconds or minutes at a time, because other tenants compete for the same
cores.  The benchmark therefore times a fixed piece of its own work, with
the same instruction mix as the library's hot path (exact rational
arithmetic, bisection over rational breakpoints), before and after every
measured interval, and scales the interval's wall time to a machine on
which that reference takes ``REFERENCE_NOMINAL_S``.  The reference is pure
computation, so time the measured interval spends waiting (file I/O, page
faults) is scaled but still counted.  The library never runs the
reference, so a change to the library moves the scaled time exactly as it
moves the raw time.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

REFERENCE_NOMINAL_S = 0.0018


def reference_work() -> Fraction:
    breakpoints = [Fraction(0)]
    for k in range(1, 40):
        breakpoints.append(breakpoints[-1] + Fraction(k, 7))
    acc = Fraction(0)
    for k in range(120):
        x = Fraction(k, 13)
        i = bisect.bisect_right(breakpoints, x)
        acc += (x - breakpoints[i - 1]) * Fraction(3, 11)
    return acc


def reference_seconds() -> float:
    """Fastest of three back-to-back runs: robust to a single interrupt,
    and short enough to sit inside one speed phase."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Stopwatch:
    """Scales each measured interval by the mean of the reference timed just
    before and just after it."""

    def __init__(self):
        self.before = reference_seconds()

    def scaled(self, raw_seconds: float) -> float:
        after = reference_seconds()
        speed = (self.before + after) / 2
        self.before = after
        return raw_seconds * REFERENCE_NOMINAL_S / speed
