"""Host-speed correction for timings taken on a shared machine.

On a shared VM the same request can take 1.5 times longer for tens of
seconds at a time, because other tenants slow the physical core. CPU time
moves with wall time there, so neither can tell the program's cost from
the host's. A fixed pure-Python task that does not touch orbichar slows down
with the host, by more than orbichar's requests do: over such swings,
request time went as probe time to the power 0.58 to 0.75 (enumerate,
reconstruct, quotient requests on a 2-vCPU VM). So a duration is scaled by
(NOMINAL_S / probe time near it) ** ELASTICITY, which gives its duration on
a host where the task takes NOMINAL_S. Reported times are scaled that way;
the raw ones go in the report.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

NOMINAL_S = 1.5e-3  # about the typical probe on a busy 2-vCPU VM
ELASTICITY = 2 / 3
PROBE_EVERY_S = 0.2
WINDOW_S = 1.0
PROBE_REPEATS = 5


def reference_task() -> Fraction:
    """Rational and integer arithmetic, dict and list work: the mix that
    orbichar's own Python code spends its time on."""
    total = Fraction(0)
    counts: dict[int, int] = {}
    keys = []
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i)
        counts[i % 50] = counts.get(i % 50, 0) + i * i
        keys.append((i * 2654435761) % 1000003)
    keys.sort()
    return total


def probe() -> float:
    """Fastest of a few runs of the reference task: an interrupt or a cold
    cache can only slow a run down."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - start)
    return min(times)


class Pace:
    """Scales raw durations by the host speed around the time they were taken.

    A probe runs after any duration once PROBE_EVERY_S has passed since the
    last one. A duration is scaled by the median of the probes taken within
    WINDOW_S of it, which smooths out the noise of single probes.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.ends: list[float] = []
        self.probe_times: list[float] = []
        self.probes: list[float] = []
        self._probe()

    def _probe(self) -> None:
        self.probes.append(probe())
        self.probe_times.append(time.perf_counter())

    def factor(self) -> float:
        """Scale for a duration taken now, from the latest probe."""
        return _factor(self.probes[-1])

    def add(self, raw: float) -> None:
        """Record a duration that ended just now."""
        self.raw.append(raw)
        self.ends.append(time.perf_counter())
        if self.ends[-1] - self.probe_times[-1] >= PROBE_EVERY_S:
            self._probe()

    def scaled(self) -> list[float]:
        if self.ends and self.probe_times[-1] < self.ends[-1]:
            self._probe()
        out = []
        lo = 0
        for raw, end in zip(self.raw, self.ends):
            while self.probe_times[lo] < end - raw - WINDOW_S:
                lo += 1
            hi = bisect.bisect_right(self.probe_times, end + WINDOW_S, lo)
            out.append(raw * _factor(statistics.median(self.probes[lo:hi])))
        return out


def _factor(probe_s: float) -> float:
    return (NOMINAL_S / probe_s) ** ELASTICITY
