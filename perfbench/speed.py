"""The machine's speed, sampled through a run, to scale times to a reference speed.

This benchmark runs on a few vCPUs of a shared host whose speed moves from
second to second: in one process, the one-second medians of a fixed
pure-Python loop ranged from 15 to 23 ms a pass, and its CPU time moved
with its wall time, so the processor runs slower rather than being taken
away.  Spells last from under a second to minutes, so neither longer runs
nor CPU time remove them.

``Sampler.start()`` arms an interval timer; every ``INTERVAL_S`` the signal
handler runs ``kernel()``, fixed work that calls nothing of the package,
with the garbage collector held off so that the program's heap does not
decide its time, and records when it ran, its thread CPU time and its wall
time.  Thread CPU time leaves out any wait for a processor, so a sample
measures how fast the processor runs, not how busy it is.  ``Sampler.scaled(t0, t1)`` is the wall
time from t0 to t1, less the time the handler took in it, multiplied by
``REFERENCE_S`` over the median sample of that interval (or of the
``MIN_SAMPLES`` samples nearest it, when it holds fewer).  A time scaled so
reads what it would have read at the reference speed.

The handler takes under 1% of the run; that time is subtracted from the
scaled times but stays inside the spans of a traced run.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.02
MIN_SAMPLES = 5
# The kernel's median thread CPU time on the 2-vCPU Intel Xeon where the
# benchmark was written: the speed every scaled time is given at.
REFERENCE_S = 136e-6


def kernel() -> int:
    """Integer arithmetic, then small tuples hashed into a dict.

    The two halves take about equal time.  Integer arithmetic alone tracks
    the slow spells less well: over six certify runs it left the median
    answer time spread by 0.148 of its median, the two halves by 0.081.
    """
    a, acc = 1, 0
    for i in range(1, 300):
        a = (a * 31 + i) % 1000003
        acc += (a ^ i) % 97 + (a >> 3)
    counts: dict[tuple[int, int], int] = {}
    for i in range(160):
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + i
    return acc + len(counts)


class Sampler:
    def __init__(self) -> None:
        self.at: list[float] = []
        self.cpu: list[float] = []
        self.cost: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        c0 = time.thread_time()
        kernel()
        c1 = time.thread_time()
        if collecting:
            gc.enable()
        self.at.append(t0)
        self.cpu.append(c1 - c0)
        self.cost.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def wait_for(self, n: int) -> None:
        """Sleep until at least n samples have been taken."""
        while len(self.at) < n:
            time.sleep(INTERVAL_S)

    def speed(self, t0: float, t1: float) -> float:
        """Median kernel CPU time of the samples taken between t0 and t1.

        With fewer than MIN_SAMPLES in the interval, the MIN_SAMPLES taken
        nearest it are used instead.
        """
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_left(self.at, t1)
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        if hi > len(self.at) or lo >= hi:
            raise RuntimeError(f"{len(self.at)} speed samples, {MIN_SAMPLES} needed")
        return statistics.median(self.cpu[lo:hi])

    def own_time(self, t0: float, t1: float) -> float:
        """Wall time the handler took between t0 and t1."""
        return sum(self.cost[bisect.bisect_left(self.at, t0) : bisect.bisect_left(self.at, t1)])

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 without the handler, at the reference speed."""
        return (t1 - t0 - self.own_time(t0, t1)) * REFERENCE_S / self.speed(t0, t1)
