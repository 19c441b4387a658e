"""Host-speed sampling, so that timings survive the host's speed drift.

The benchmark host is shared: the speed of a fixed piece of Python work
drifts by 10-50% over tens of seconds, with CPU time equal to wall time
(it is not preemption).  `Sampler` runs a fixed calibration unit from a
SIGALRM handler every `INTERVAL_S` seconds of the timed region and records
when it ran and how long it took.  `normalize` scales a raw latency by
`REF_UNIT_S` over the mean unit time sampled during the operation and
within `WINDOW_S` of it, which gives the latency at the reference speed.
The handler's own time is subtracted from the operations it interrupts.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.1
# A short operation is judged by the samples within this distance of it.
WINDOW_S = 1.0
# Time of one calibration unit at the reference speed: a round figure near
# its time on the 2-core Intel Xeon host where the benchmark was defined
# (0.9-1.7 ms there, depending on the host's load).
REF_UNIT_S = 1.0e-3

_PERM = tuple((7 * i + 3) % 64 for i in range(64))


def calibration_unit() -> float:
    """Time fixed interpreter work of the kind the library does: tuples built
    by index gathers and dict inserts keyed by tuples.

    The collector is paused so that a collection of the program's heap is
    not charged to the unit; it runs later, in the program's own time.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        q = tuple(range(64))
        seen = {}
        for _ in range(300):
            q = tuple(_PERM[i] for i in q)
            seen[q] = len(seen)
        return time.perf_counter() - t0
    finally:
        if paused:
            gc.enable()


def unit_time(repeat: int = 5) -> float:
    """Median time of `repeat` calibration units."""
    return statistics.median(calibration_unit() for _ in range(repeat))


class Sampler:
    def __init__(self):
        self.stamps: list[float] = []  # midpoint of each sample
        self.units: list[float] = []  # its duration
        self.spent = 0.0  # total handler time, to subtract from latencies

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        unit = calibration_unit()
        self.stamps.append(t0 + unit / 2)
        self.units.append(unit)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._tick(None, None)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)
        return False

    def unit_during(self, start: float, end: float) -> float:
        """Mean unit time sampled within WINDOW_S of [start, end].

        The mean, not the median: unit times are bimodal on a shared host,
        and the mean weighs the two modes by the time spent in each.
        """
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if hi == lo:  # the handler was held off: take the nearest sample
            lo, hi = max(lo - 1, 0), min(lo + 1, len(self.units))
        return statistics.fmean(self.units[lo:hi])

    def normalize(self, latency: float, start: float, end: float) -> float:
        return latency * REF_UNIT_S / self.unit_during(start, end)
