"""Op times normalized to a reference CPU speed.

On the shared 2-vCPU host the benchmark was tuned on, the same op on the same
input runs anywhere from 1x to 2x its fastest time, in stretches of a few
seconds to over a minute, and process CPU time slows just as much as wall
time (co-tenants share the physical core and cache; no steal time shows).
A 30 s run can fall wholly inside a slow stretch, so no statistic over one
run's raw times is steady from run to run.

``SpeedMeter`` samples the CPU's speed in the benchmark's own thread while the
ops run: a ``SIGALRM`` interval timer runs a fixed pure-Python kernel
(``Fraction`` sums and dict updates, the stepper's and the simplex's kind of
work) every ``INTERVAL_S``, between the bytecodes of whatever op is running,
and records how long the kernel took.  An op's normalized time is its wall
time, less the kernel's own time, times the mean of ``REFERENCE_S / kernel
time`` over the samples taken during the op: the time the op would have
taken had the CPU run at the speed where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.005  # one sample per 5 ms of wall time; the kernel costs ~2.5% of it
# About the kernel's fastest time on the 2-vCPU Intel Xeon (Sapphire Rapids)
# KVM guest the sizes were tuned on; it only scales the normalized figures.
REFERENCE_S = 75e-6
_TERMS = [Fraction(1, i) for i in range(1, 40)]


def kernel() -> Fraction:
    total, buckets = Fraction(0), {}
    for i, term in enumerate(_TERMS):
        total += term
        buckets[i & 7] = buckets.get(i & 7, 0) + i
    return total


class SpeedMeter:
    """Samples the kernel's time every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self._previous = None
        self._running = False

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        self.kernel_s.append(perf_counter() - start)

    def start(self) -> "SpeedMeter":
        """Start sampling; a no-op while already sampling."""
        if not self._running:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            self._running = True
        return self

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._running = False

    def mark(self) -> int:
        return len(self.kernel_s)

    def speed(self, lo: int, hi: int) -> tuple[float, float]:
        """(total kernel seconds, normalizing factor) of samples ``lo:hi``.
        A stretch too short to be sampled takes the speed of the nearest
        earlier sample."""
        samples = self.kernel_s[lo:hi]
        spent = sum(samples)
        if not samples:
            if lo == 0:
                self._sample(None, None)
            samples = self.kernel_s[max(lo - 1, 0):max(lo, 1)]
        return spent, statistics.fmean(REFERENCE_S / k for k in samples)

    def normalize(self, wall_s: float, lo: int, hi: int) -> tuple[float, float]:
        """(wall time less the kernel's, normalized time) of an op that took
        ``wall_s`` while samples ``lo:hi`` were taken."""
        spent, factor = self.speed(lo, hi)
        return wall_s - spent, (wall_s - spent) * factor
