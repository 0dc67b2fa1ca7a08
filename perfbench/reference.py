"""Reference clock: rescales wall time by the machine's speed while it runs.

On a shared 2-vCPU virtual machine (Intel Xeon, Python 3.11.7, numpy
2.4.6) the same op takes 1.2 s in some phases and 2.1 s in others, with
CPU time equal to wall time. The speed of a pinned single-threaded loop
moves by ±25 % within seconds, and there are slower phases that last
tens of seconds. Medians of raw wall-time throughput over ten runs
therefore spread by about 30 %.

While an interval is measured, a ``SIGALRM`` timer interrupts the main
thread every ``SAMPLE_S`` seconds and times one unit of a fixed kernel:
small numpy calls plus Python arithmetic, the mix the program spends its
time on. The sampler's own time (under 1 %) is taken out of the
interval, and the rest is rescaled by the kernel's mean speed over the
interval into reference seconds: seconds on a machine where the kernel
does ``REF_UNITS_PER_S`` units per second. An interval too short for the
timer to fire is rescaled by ``MIN_SAMPLES`` units timed right after it.
"""

import contextlib
import signal
import time

import numpy as np

REF_UNITS_PER_S = 2500.0
SAMPLE_S = 0.05
MIN_SAMPLES = 5

_X = np.linspace(0.1, 1.0, 600).reshape(300, 2)
_M = np.array([[0.9, 0.1], [0.2, 0.8]])


def _unit_s() -> float:
    """Wall seconds of one unit of the reference kernel."""
    t0 = time.perf_counter()
    x = _X
    for _ in range(20):
        y = np.exp(-x) * 1.5 + x @ _M
        x = np.where(y > 1.0, y - 1.0, y)
        acc = 0.0
        for v in range(40):
            acc += v * 0.5
    return time.perf_counter() - t0


class Interval:
    wall_s = 0.0  # wall time without the sampler's own
    ref_s = 0.0


class RefClock:
    def __init__(self):
        self._samples: list = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self._samples.append(_unit_s())

    def _rescale(self, wall_s: float) -> float:
        while len(self._samples) < MIN_SAMPLES:
            self._samples.append(_unit_s())
        speed = len(self._samples) / sum(self._samples)
        return wall_s * speed / REF_UNITS_PER_S

    def ref_s(self, wall_s: float) -> float:
        """Reference seconds of a wall interval that just ended unsampled."""
        self._samples = []
        return self._rescale(wall_s)

    @contextlib.contextmanager
    def interval(self):
        """Measure the body; the yielded Interval is filled on exit."""
        iv = Interval()
        self._samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            yield iv
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            iv.wall_s = wall - sum(self._samples)
            iv.ref_s = self._rescale(iv.wall_s)
