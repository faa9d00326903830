"""Machine-speed calibration for the benchmark's timings.

On a shared host the CPU's speed drifts by up to a factor of two within
minutes, and CPU time drifts with wall time, so raw timings of one commit
spread wider than any useful regression bound. Every timed op is
therefore rescaled by the speed read next to it from a fixed loop that
touches no stoptime code, so no change to the library can move it. Times
are reported in reference seconds: seconds on a machine where the loop
takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

REFERENCE_S = 0.003
CALIBRATION_STEPS = 300


def calibration_loop() -> float:
    """Wall seconds one fixed stdlib-only loop of Fraction arithmetic and
    dict updates takes now: the fastest of three runs, with the garbage
    collector paused, so that a preemption or a collection of the
    workload's objects does not read as a slow machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            table: dict = {}
            for i in range(1, CALIBRATION_STEPS):
                x = (Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 13 + 1)
                     + Fraction(1, i % 7 + 2))
                table[i % 251] = table.get(i % 251, 0) + x.numerator % 1000
            sorted(table.items())
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Factors from wall seconds to reference seconds, from the calibration
    loop run at most every `interval` wall seconds."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.factors: list = []
        self.spent = 0.0          # wall seconds spent calibrating
        self._at = -math.inf

    def factor(self) -> float:
        if time.perf_counter() - self._at >= self.interval:
            took = calibration_loop()
            self.spent += took
            self.factors.append(REFERENCE_S / took)
            self._at = time.perf_counter()
        return self.factors[-1]

    def timed(self, fn, *args):
        """(result, reference seconds) of one call, rescaled by the mean of
        the factors read just before and just after it."""
        before = self.factor()
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        return result, elapsed * (before + self.factor()) / 2
