"""Fixed reference work, timed inside every benchmark pass.

On a shared virtual machine the speed of a CPU second is not fixed: the host
gives the guest's vCPU a fast and a slow mode that switch within seconds, and
the same pass can take 1.7 times as much CPU time in one minute as in the
next.  ``Sampler`` cancels that: while a pass runs, it interrupts the program
every ``PASS_INTERVAL_S`` of CPU time (``SIGPROF``) and times one unit of fixed
work, exact ``Fraction`` row reduction of the kind littleweyl does.  Each
stretch of program CPU time between two samples is divided by the mean of
those two samples, so it is counted in units of the reference work done at
the same moment.  No change to littleweyl can change the reference work; a
change to this file changes the unit of every recorded figure.

Sample times are read from the thread CPU clock: while an ``ITIMER_PROF``
timer is armed, Linux reads the process CPU clock only at scheduler ticks.
The program is single-threaded, so its thread time is its CPU time.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Process CPU seconds between two samples in a pass, and during the import
# that setup_s measures (about 0.15 s of CPU, so it needs closer samples).
PASS_INTERVAL_S = 0.04
SETUP_INTERVAL_S = 0.01
# Normalised times are CPU seconds on a machine where one unit takes this
# long; it is about what a unit took on the 2-vCPU guest of BASELINE.md.
REF_UNIT_S = 0.002

# A fixed 7 x 8 rational matrix; rows are pseudo-random but never change.
_MATRIX = [
    [Fraction((7 * i + 3 * j) % 11 - 5, (i + 2 * j) % 3 + 1) for j in range(8)]
    for i in range(7)
]


def rref(rows):
    work = [list(r) for r in rows]
    r = 0
    for c in range(len(work[0])):
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return work[:r]


def sample() -> float:
    """Thread CPU seconds of one unit of reference work.  The cyclic garbage
    collector is held off, so that it never runs the program's collections
    inside a sample (the unit makes no cycles)."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.thread_time()
    rref(_MATRIX)
    took = time.thread_time() - start
    if enabled:
        gc.enable()
    return took


class Sampler:
    """Times reference units at regular CPU intervals while it is running."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: list[float] = []
        # gaps[i]: program CPU time between samples[i] and samples[i + 1]
        self.gaps: list[float] = []
        self._last = 0.0

    def _take(self) -> None:
        now = time.thread_time()
        if self.samples:
            self.gaps.append(now - self._last)
        self.samples.append(sample())
        self._last = time.thread_time()

    def _tick(self, signum, frame) -> None:
        self._take()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        self._take()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._take()

    def reference_seconds(self) -> float:
        """CPU time spent in the samples themselves."""
        return sum(self.samples)

    def normalised_seconds(self) -> float:
        """The program's CPU time between ``start`` and ``stop``, in
        ``REF_UNIT_S`` per unit of reference work done around it."""
        units = sum(
            gap / ((before + after) / 2)
            for gap, before, after in zip(self.gaps, self.samples, self.samples[1:])
        )
        return units * REF_UNIT_S
