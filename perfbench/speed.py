"""The machine's speed, sampled while a run is timed, so that the run's
times can be given at one fixed speed.

The benchmark's machine is shared, and its speed changes by up to a half
within a minute as other tenants come and go.  Ten runs of one workload
then spread by up to 0.47 (Q3 - Q1 over the median), although the same
pages, timed interleaved in one process, differ by 3%.  So while a run is
timed, a timer interrupts it every ``INTERVAL`` seconds and times a fixed
pure-Python loop.  That loop's time over ``NOMINAL_S`` is the machine's
slowdown at that moment.  A span of the run, less the time spent in the
samples taken inside it, is divided by the median slowdown during the
span and ``WINDOW`` seconds either side of it, raised to ``SENSITIVITY``.
The loop does not touch ffrg, so a change to ffrg changes the loop's time
only as much as it changes the machine.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time

clock = time.perf_counter

INTERVAL = 0.25  # seconds between samples
# A span's slowdown also counts the samples this close to it, so that a
# short span rests on a few dozen samples.  Of 2, 5, 10 and 20 s and the
# whole run, 5 s gave the steadiest figures over five seeds of each workload.
WINDOW = 5.0
# The loop's time, in seconds, at the speed the benchmark reports: about
# its time on the machine recorded in MACHINE.json in that machine's slow
# state, so that figures taken there read close to the measured ones.
NOMINAL_S = 0.002
# The loop's time swings more than ffrg's: the machine switches between a
# slow and a fast state, and in the fast one the loop runs twice as fast
# but ffrg only 1.3 to 1.9 times.  Over 30 runs (ten seeds of each
# workload), the log of each body metric moved with the log of the run's
# median slowdown at slopes of 0.40 to 0.92, with a median of 0.64.
SENSITIVITY = 0.6
ITERATIONS = 1600
_WORDS = ("invoice", "number", "date", "total", "amount", "due", "tax", "vendor", "address", "qty")


def reference_loop() -> float:
    """Fixed interpreter work of the kinds ffrg's hot code does: indexing,
    character comparison, dict updates and float arithmetic."""
    counts: dict[str, int] = {}
    acc = 0.0
    for i in range(ITERATIONS):
        a = _WORDS[i % 10]
        b = _WORDS[(i * 7 + 3) % 10]
        same = 0
        for x, y in zip(a, b):
            if x == y:
                same += 1
        counts[a] = counts.get(a, 0) + same
        acc += math.hypot(i * 0.5, same)
    return acc


def raw(t0: float, t1: float) -> float:
    """Seconds between two clock readings, as measured."""
    return t1 - t0


class Sampler:
    """Samples the slowdown while installed (``with Sampler() as s:``);
    ``s.elapsed`` then converts spans of that time to nominal seconds."""

    def __init__(self):
        self.ends: list[float] = []  # clock at the end of each sample
        self.durations: list[float] = []  # seconds each sample took
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a signal that arrived during a sample
            return
        self._busy = True
        was_enabled = gc.isenabled()
        gc.disable()  # the loop allocates; ffrg's objects must not be scanned in it
        t0 = clock()
        reference_loop()
        t1 = clock()
        if was_enabled:
            gc.enable()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def slowdown(self, t0: float, t1: float) -> float:
        """Median loop time over NOMINAL_S, of the samples that ended from
        WINDOW seconds before `t0` to WINDOW seconds after `t1`."""
        lo = bisect.bisect_left(self.ends, t0 - WINDOW)
        hi = bisect.bisect_right(self.ends, t1 + WINDOW)
        return statistics.median(self.durations[lo:hi]) / NOMINAL_S

    def elapsed(self, t0: float, t1: float) -> float:
        """Seconds the span [t0, t1] would take at nominal speed, without
        the samples taken inside it."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_left(self.ends, t1)
        return (t1 - t0 - sum(self.durations[lo:hi])) / self.slowdown(t0, t1) ** SENSITIVITY

    def summary(self) -> str:
        ratios = sorted(d / NOMINAL_S for d in self.durations)
        return (f"slowdown median {statistics.median(ratios):.3f} "
                f"(min {ratios[0]:.3f}, max {ratios[-1]:.3f}) over {len(ratios)} samples, "
                f"{sum(self.durations):.3f} s spent sampling")
