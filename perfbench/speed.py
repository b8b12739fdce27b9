"""Machine-speed probe: scales measured times to one nominal machine speed.

This box's speed changes by up to 2.4x within seconds, independently on each
of its two vCPUs, while CPU time keeps equal to wall time (see README).  No
run length averages that out, so the benchmark measures the speed itself.
A timer interrupts the run every ``INTERVAL`` seconds and times a fixed
calibration kernel in the same process, on the same vCPU, in the middle of
the work being measured.  A measured interval then counts

    (wall time - time spent in the probe) * NOMINAL / local probe time,

where the local probe time is the mean of the probe samples within
``HALF_WINDOW`` seconds of the interval, and ``NOMINAL`` is the kernel's
time in the box's fast state.  Times are therefore seconds at that speed.

The kernel is the benchmark's own code, so a change to qfourier cannot move
it.  It is 50-digit mpmath arithmetic, the library's dominant work; over ten
markov-apply runs it also left less spread in the float ops than a BLAS
kernel did.
"""

from __future__ import annotations

import bisect
import signal
import time

import mpmath as mp

INTERVAL = 0.05
HALF_WINDOW = 0.5
NOMINAL = 6.6e-4   # the kernel's time in the box's fast state (s); see README


def kernel() -> None:
    """50-digit multiply-add chain, like the library's mp sums."""
    with mp.workdps(50):
        acc = mp.mpf(0)
        x = mp.mpf(2) / 3
        for k in range(1, 120):
            acc += x * k / (k + 1)


class SpeedProbe:
    """Samples the calibration kernel on a wall-clock timer during a run."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._spent: list[float] = [0.0]     # cumulative probe time after sample i
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(dt)
        self._spent.append(self._spent[-1] + dt)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def spent(self, t0: float, t1: float) -> float:
        """Probe time that fell inside [t0, t1)."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return self._spent[j] - self._spent[i]

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1) without the probe, at the nominal speed."""
        i = bisect.bisect_left(self.starts, t0 - HALF_WINDOW)
        j = bisect.bisect_right(self.starts, t1 + HALF_WINDOW)
        if j - i < 2:   # too few samples nearby: take the nearest ones
            k = bisect.bisect_left(self.starts, t0)
            i, j = max(0, k - 2), min(len(self.starts), k + 2)
        local = sum(self.durations[i:j]) / (j - i)
        return (t1 - t0 - self.spent(t0, t1)) * NOMINAL / local

    def summary(self) -> dict:
        d = sorted(self.durations)
        return {"samples": len(d), "min_ms": 1e3 * d[0],
                "median_ms": 1e3 * d[len(d) // 2], "max_ms": 1e3 * d[-1]}
