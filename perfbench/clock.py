"""Job timings scaled by a fixed calibration kernel.

The machines this benchmark runs on are shared: the same CPU-bound code runs
up to 1.7 times slower for seconds at a time when neighbours are busy, and
CPU time slows with wall time, so neither clock alone is repeatable.  The
run therefore times a fixed pure-Python kernel (exact ``Fraction``
arithmetic, dict and list work, a small JSON round trip: the same mix the
program spends its time on, small and with large power-of-two
denominators) every ``INTERVAL_S`` seconds between jobs, and
scales each job's wall time by ``REFERENCE_S / kernel time``, taking the
kernel time as the mean of the calibrations just before and just after the
job.  A reported time is thus the time the job would take on a machine where
one calibration takes ``REFERENCE_S``.  The kernel never calls the program,
so a slower or faster program moves the scaled times exactly as it moves
the raw ones; the run also reports the raw figures and the calibration
times next to the metrics.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

# one calibration in the fast phases of a 2-vCPU x86-64 container at
# 2.1 GHz with Python 3.11; a fixed unit, never re-measured
REFERENCE_S = 0.0225
INTERVAL_S = 0.5
_ROUNDS = 5


def _kernel() -> Fraction:
    rng = random.Random(7)
    small, dyadic = Fraction(0), Fraction(0)
    table: dict[int, tuple[bool, int]] = {}
    for i in range(300):
        a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        small = small + a if small < 3 else small - a
        table[i % 64] = (a < small, a.numerator * 3 + i)
        # large power-of-two denominators, as in coded values and hub draws
        b = Fraction(rng.randint(1, 1 << 40), 1 << rng.randint(40, 160))
        dyadic = dyadic + b if dyadic < 1 else dyadic - b
    json.loads(json.dumps([str(small), str(dyadic)] + sorted(table)))
    return small + dyadic


class Clock:
    def __init__(self) -> None:
        self.samples: list[float] = []  # calibration durations
        self._last = float("-inf")

    def calibrate(self) -> int:
        """Time the kernel now; returns the index of this sample."""
        t0 = time.perf_counter()
        for _ in range(_ROUNDS):
            _kernel()
        end = time.perf_counter()
        self.samples.append(end - t0)
        self._last = end
        return len(self.samples) - 1

    def mark(self) -> int:
        """Index of the calibration a job starting now is scaled from,
        calibrating first when the last one is ``INTERVAL_S`` old."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            return self.calibrate()
        return len(self.samples) - 1

    def factor(self, before: int) -> float:
        """Scale for work done between calibration ``before`` and the next."""
        after = min(before + 1, len(self.samples) - 1)
        return REFERENCE_S / ((self.samples[before] + self.samples[after]) / 2)
