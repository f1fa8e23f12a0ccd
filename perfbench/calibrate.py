"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of the machine itself changes in phases of
seconds to minutes: a fixed piece of Python work took from 13 to 23 ms
within two minutes on a 2-vCPU VM, and CPU time slowed with wall time.
Timings taken straight from the clock then spread by 15-50% between
runs of the same code, more than any bound a change could be held to.

So the benchmark times a fixed calibration kernel between requests, for
``SHARE`` of the request time, and states each request's time at a
reference host speed: the time as measured, times ``REFERENCE_S`` over
the median kernel time around that request.  The kernel is plain Python
that runs no ``repro`` code, so a change to the program moves the
normalised timings and a change in host speed does not.  It runs just
before a request is sent, when no pool worker is busy, so the
benchmark's own processes do not slow it.
"""

import bisect
import gc
import statistics
import time
from typing import List

#: Kernel time, in seconds, of the host speed all normalised timings are
#: stated at.  On a 2-vCPU Xeon VM the kernel took 1.6-2.8 ms.
REFERENCE_S = 0.002
#: Kernel time kept to this share of the work time, sampled between units of work.
SHARE = 0.05
#: Kernel samples taken within this much work time on either side of a
#: unit of work give its local host speed.
WINDOW_S = 0.5


class _Node:
    __slots__ = ("index", "weight")

    def __init__(self, index: int, weight: int) -> None:
        self.index = index
        self.weight = weight


def kernel() -> int:
    """Fixed work: integer arithmetic, attribute reads, dict and list use, a sort.

    It builds no reference cycles and runs with the collector off, so
    its time does not depend on how much memory the benchmark holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        for i in range(20000):
            total += i * i % 7
        nodes = [_Node(i, i * 7919 % 503) for i in range(300)]
        weights = {}
        for node in nodes:
            for j in range(3):
                other = nodes[(node.index * 31 + j) % 300]
                key = (node.index, other.index)
                weights[key] = weights.get((other.index, node.index), 0) + node.weight - other.weight
        ranked = sorted(weights.items(), key=lambda item: item[1])
        return total + len(ranked)
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Kernel samples taken between units of work, and the scale they give.

    Samples are placed on the axis of accumulated work time, so a unit of
    work is compared with the samples taken just before and after it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Work time at which each sample was taken.
        self.at: List[float] = []
        #: Seconds spent in the kernel, to take out of any enclosing time.
        self.spent = 0.0
        self.busy = 0.0

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            started = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - started
            self.samples.append(elapsed)
            self.at.append(self.busy)
            self.spent += elapsed

    def catch_up(self) -> None:
        """Sample until the kernel has had ``SHARE`` of the work time so far."""
        while self.spent < SHARE * self.busy:
            self.sample()

    def add(self, busy: float) -> float:
        """Account ``busy`` seconds of work; returns the work time at its midpoint."""
        mark = self.busy + busy / 2
        self.busy += busy
        return mark

    def scale(self, mark: float) -> float:
        """REFERENCE_S over the median of the samples within WINDOW_S of ``mark``."""
        lo = bisect.bisect_left(self.at, mark - WINDOW_S)
        hi = bisect.bisect_right(self.at, mark + WINDOW_S)
        local = self.samples[lo:hi] or self.samples[max(0, lo - 1): lo + 1]
        return REFERENCE_S / statistics.median(local)

    def overall_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
