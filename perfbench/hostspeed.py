"""Host-speed probe: a fixed CPU kernel, timed between ops.

The reference machine is a shared host: a fixed kernel runs up to 1.6 times
slower while other load shares the host, in spells of a few seconds to
minutes, and the process CPU clock slows with it (the slowdown is not
stolen time).  Raw op times of two runs of the same inputs then differ by
25% or more.  The probe is benchmark code that no program change can speed
up; it mixes interpreted scalar math, small numpy calls and one pass over a
3 MB array, like the ops it brackets.  Timed every ``EVERY`` seconds of op
time, it gives the host's slowdown around each op, and ``run.scaled``
divides a measured time by that slowdown to get the time it would take on
the reference machine when the host is quiet.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

EVERY = 0.2          # seconds of op time between probes
WINDOW = 1.5         # probes this close to an op, in seconds, set its slowdown
# Probe time on the reference machine in its quiet state: about the 10th
# percentile of 1000 back-to-back probes.  It only sets the unit of the
# scaled times.
REFERENCE_S = 4.3e-3

_SMALL = np.linspace(0.5, 1.5, 16).reshape(4, 4)
_LARGE = np.linspace(-3.0, 3.0, 400_000)


def probe() -> float:
    """Seconds taken by one run of the fixed kernel."""
    t0 = perf_counter()
    acc, z = 0.0, 0.3 + 0.1j
    for i in range(1, 2000):
        acc += math.lgamma(1.0 + 1e-3 * i) * math.exp(-1e-4 * i)
        z = 0.5 * z * z + 0.2j
    counts: dict[int, int] = {}
    for i in range(1000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    m = _SMALL
    for _ in range(80):
        m = np.tanh(m @ _SMALL * 0.1) + _SMALL
    big = np.sqrt(np.abs(_LARGE)) * 1.5
    acc += float((big * _LARGE).sum()) + float(m.sum()) + abs(z) + len(counts)
    if not math.isfinite(acc):
        raise ArithmeticError("host-speed probe produced a non-finite value")
    return perf_counter() - t0


class HostSpeed:
    """Probe samples taken over a run, and the slowdown they give."""

    def __init__(self):
        self.times: list[float] = []    # probe start times (perf_counter)
        self.seconds: list[float] = []  # probe durations
        self._due = 0.0                 # op time at which the next probe is due

    def sample(self) -> None:
        t = perf_counter()
        self.seconds.append(probe())
        self.times.append(t)

    def maybe_sample(self, op_seconds_so_far: float) -> None:
        if op_seconds_so_far >= self._due:
            self.sample()
            self._due = op_seconds_so_far + EVERY

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time within ``WINDOW`` of [start, end], over ``REFERENCE_S``."""
        lo = bisect_left(self.times, start - WINDOW)
        hi = bisect_right(self.times, end + WINDOW)
        near = self.seconds[lo:hi]
        if not near:
            k = min(range(len(self.times)), key=lambda j: abs(self.times[j] - start))
            near = [self.seconds[k]]
        return statistics.fmean(near) / REFERENCE_S

    def run_slowdown(self) -> float:
        return statistics.fmean(self.seconds) / REFERENCE_S
