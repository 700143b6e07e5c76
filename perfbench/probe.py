"""Machine-speed probes, for times that hold steady on a shared machine.

On a small VM that shares its cores, the same code runs up to a third slower
for tens of seconds at a time, and the two cores slow down independently.
So the benchmark measures the speed of the core it runs on while it runs: a
fixed piece of work (a probe), timed on the same core between slices of the
program's own work.  A time in reference seconds is a wall time scaled by
``REF / probe time``: the wall time the same work would take on a core that
runs the probe in its reference time.

The probe should slow down as the workload does, so it does the same kind of
arithmetic: ``loop`` is interpreted small-integer work, which tracks the
mod-p code (numpy on small arrays, driven from Python); ``fraction`` adds
``Fraction`` values whose denominators grow, which tracks the rational code.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02


def loop_probe() -> float:
    """Seconds taken by a fixed loop of interpreted integer arithmetic."""
    t = perf_counter()
    s = 0
    for i in range(8000):
        s += i * i % 7
    return perf_counter() - t


def fraction_probe() -> float:
    """Seconds taken by a fixed sum of fractions with growing denominators."""
    t = perf_counter()
    for _ in range(2):
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(i * 7919 + 1, i * 104729 + 3)
    return perf_counter() - t


# name -> (probe, its time in seconds on an idle core of the 2-vCPU Xeon VM
# that set the baseline)
PROBES = {"loop": (loop_probe, 0.0006), "fraction": (fraction_probe, 0.00055)}


class Gauge:
    """Converts the main thread's wall time to reference seconds.

    A timer signal interrupts the program every INTERVAL_S seconds and runs
    one probe of the given kind; the slice of work before each probe is
    scaled by that probe's speed.  Probe time itself is counted in neither
    wall nor reference time.
    """

    def __init__(self, kind: str):
        self._probe, self._ref = PROBES[kind]
        self.ref_s = 0.0
        self.wall_s = 0.0
        self.probes = 0
        self._factor = self._ref / self._probe()
        self._last = perf_counter()

    def _tick(self, signum, frame):
        t = perf_counter()
        d = self._probe()
        self._factor = self._ref / d
        self.wall_s += t - self._last
        self.ref_s += (t - self._last) * self._factor
        self.probes += 1
        self._last = perf_counter()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._last = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def read(self) -> tuple[float, float]:
        """(wall seconds, reference seconds) of work so far."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            open_slice = perf_counter() - self._last
            return self.wall_s + open_slice, self.ref_s + open_slice * self._factor
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
