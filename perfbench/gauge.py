"""Correct measured times for the host's speed at the moment they were taken.

The benchmark runs on a few cores of a shared host whose speed drifts by
±30% over seconds to minutes.  A wall time taken in a slow minute and one
taken in a fast minute differ by more than any bound a regression check
could use.  So while operations are timed, a timer signal runs a fixed piece
of work (the *gauge*) every ``PERIOD_S`` seconds in the timed process
itself, on whatever core that process has at the time, and records how long
it took.  An operation's corrected time is its wall time without the gauge
runs inside it, scaled by ``REFERENCE_S`` over the median gauge time around
it: the time it would have taken with the host at its reference speed.

The gauge is half interpreted float arithmetic and half numpy passes over a
64 KiB array, like the program's mix of Python loops and array code.  Over
five minutes of escape, residue, resolvent, correlate and flow operations on
the 2-core host, this mix brought the coefficient of variation of their
times from 0.11-0.19 down to 0.04-0.07; the Python part alone over-corrects
(the program slows about 0.7 times as much as a pure Python loop), and the
array part alone under-corrects.

With the host at its reference speed a corrected time equals the wall time;
a change to the program moves it as it moves the wall time, because the
gauge runs no program code.
"""

from __future__ import annotations

import signal
import statistics
import time

#: seconds between gauge runs; a run takes about 1.6 ms, 1.6% of the time
PERIOD_S = 0.1
#: median gauge time on the 2-core host the baseline was recorded on
REFERENCE_S = 1.6e-3
#: gauge runs an operation's speed is taken from, at least: those inside it,
#: else the nearest ones in time
NEAREST = 5
#: gauge runs right after the imports of the set-up measurement
AFTER_RUNS = 15


def spin(np, array):
    """The gauge.  ``np`` is numpy, passed in so that a signal handler never
    imports; ``array`` is 8192 float64 values."""
    total = 0.0
    for i in range(6000):
        total += (i * 0.5) ** 0.5
    for _ in range(20):
        array = np.cumsum(array[::-1]) * 1e-3
    return total + float(array[0])


def _numpy():
    import numpy

    return numpy, numpy.linspace(0.0, 1.0, 8192)


class Gauge:
    """Context manager that runs the gauge on SIGALRM every ``PERIOD_S``
    seconds and keeps (start, duration) of every run."""

    def __init__(self):
        self.ticks = []
        self._np, self._array = _numpy()

    def _tick(self, signum, frame):
        start = time.perf_counter()
        spin(self._np, self._array)
        self.ticks.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def settle(self):
        """Keep the process busy until ``NEAREST`` gauge runs are recorded,
        so that a short run still has enough of them."""
        while len(self.ticks) < NEAREST:
            spin(self._np, self._array)

    def corrected(self, start, seconds):
        """The interval [start, start + seconds) without the gauge runs that
        started inside it, at the reference speed."""
        end = start + seconds
        inside = [d for t, d in self.ticks if start <= t < end]
        by_distance = sorted(self.ticks, key=lambda td: max(start - td[0], td[0] - end, 0.0))
        near = by_distance[:max(len(inside), NEAREST)]
        return (seconds - sum(inside)) * REFERENCE_S / statistics.median(d for _, d in near)


def corrected_now(seconds):
    """``seconds`` just measured, at the reference speed, from gauge runs made
    now.  For the set-up measurement, whose imports must run before numpy is
    loaded and so without the timer."""
    np, array = _numpy()
    runs = []
    for _ in range(AFTER_RUNS):
        start = time.perf_counter()
        spin(np, array)
        runs.append(time.perf_counter() - start)
    return seconds * REFERENCE_S / statistics.median(runs)
