"""The host's pace, sampled inside the measured process, and timings
rescaled to a fixed reference pace.

On a shared host the same pure-Python code runs up to 1.8x slower for
seconds to minutes at a time, with no steal time: the vCPU itself gets
slower.  That drift is slower than one repeat of a workload and faster
than a run, so medians over a run's repeats do not remove it.  A Pacer
therefore interrupts the process every `interval` seconds (SIGALRM) and
times a fixed calibration loop, the fastest of REPS tries; the pace of
that moment is REFERENCE_S / that time.  `reference_seconds(t0, t1)`
turns a measured interval into the time it would have taken at pace 1:
the interval less the sampling inside it, times the mean pace of the
samples from the one before t0 to the one after t1.

The calibration loop is plain Python on ints and a small dict, like the
package's own code; the sampling costs well under 1% of the run and is
not counted in any interval.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

# pace 1: one calibration loop in 40 us, about its time on an unloaded
# 2-vCPU Xeon VM under Python 3.11
REFERENCE_S = 40e-6
REPS = 3
CALIBRATION_STEPS = 400


def _calibration_loop(steps: int = CALIBRATION_STEPS) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(steps):
        table[i & 63] = acc
        acc += i * i % 7
    return acc


class Pacer:
    """Samples the pace while active (`with Pacer() as pacer:`); one
    sample is taken on entry and one on exit, so any interval inside the
    block has a sample on each side."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.paces: list[float] = []

    def sample(self, *_signal_args) -> None:
        clock = time.perf_counter
        start = clock()
        best = float("inf")
        for _ in range(REPS):
            t = clock()
            _calibration_loop()
            best = min(best, clock() - t)
        self.add(start, clock(), REFERENCE_S / best)

    def add(self, start: float, end: float, pace: float) -> None:
        self.starts.append(start)
        self.ends.append(end)
        self.paces.append(pace)

    def __enter__(self) -> Pacer:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Seconds the work done in [t0, t1] would take at pace 1."""
        lo = max(bisect_right(self.starts, t0) - 1, 0)
        hi = min(bisect_left(self.starts, t1) + 1, len(self.starts))
        window = range(lo, hi)
        sampling = sum(
            max(0.0, min(t1, self.ends[k]) - max(t0, self.starts[k])) for k in window
        )
        pace = sum(self.paces[k] for k in window) / len(window)
        return (t1 - t0 - sampling) * pace

    def median_pace(self) -> float:
        ordered = sorted(self.paces)
        return ordered[len(ordered) // 2]
