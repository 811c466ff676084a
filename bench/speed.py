"""Host-speed references: fixed work timed next to every measurement.

The hosts this benchmark runs on share their cores with other tenants, and
their speed changes by up to 1.5x from one few-second stretch to the next.
Raw wall times then spread far wider than any regression worth catching.
So every time the benchmark reports with a bound is in *reference seconds*:

    reference time = wall time * NOMINAL / (reference time measured around it)

Two references, one per kind of measurement, because each tracks only work
like its own:

- ``loop_s``: a pure-Python loop in this process, for in-process jobs, which
  are interpreter-bound;
- ``fresh_s``: a fresh interpreter importing numpy, qwalk's one third-party
  dependency and most of its import time, for fresh-interpreter jobs and
  set-up probes, which are dominated by process start and imports.

Neither uses qwalk, so a change to the program moves the reported times by
the same share as the wall times, while a change in host speed largely
cancels.  Raw wall times and speed factors are kept in the result file.
"""
from __future__ import annotations

import math
import random
import subprocess
import sys
import time

#: a sample older than this is taken again before the next measurement
STALE_S = 0.05


class _Register:
    __slots__ = ("w", "y")

    def __init__(self):
        self.w = 0.5
        self.y = 0j


def loop_s(n: int = 12_000) -> float:
    """Wall time of interpreter-bound work of the same kind as an event loop:
    slots, complex arithmetic, seeded draws, dict counts."""
    t0 = time.perf_counter()
    rnd = random.Random(1)
    registers = [_Register() for _ in range(8)]
    counts: dict = {}
    m = 1 + 0j
    for i in range(n):
        r = registers[i & 7]
        r.w = 0.9 * r.w + 0.1
        r.y = 0.9 * r.y + 0.1 * m
        a = r.y.real ** 2 + r.y.imag ** 2
        port = rnd.random() * (a + r.w) < a
        m = complex(r.w, a) / math.sqrt(r.w * r.w + a * a)
        counts[port] = counts.get(port, 0) + 1
    return time.perf_counter() - t0


def fresh_s() -> float:
    """Wall time of a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


class Clock:
    """Speed factor of the host around one measurement (> 1 when it ran slow).

    Call ``before()`` just before the measurement and ``after()`` just after;
    back-to-back measurements share the sample between them.
    """

    def __init__(self, reference, nominal_s: float):
        self.reference = reference
        self.nominal_s = nominal_s
        self._last = 0.0
        self._taken = -math.inf

    def _sample(self) -> None:
        self._last = self.reference()
        self._taken = time.perf_counter()

    def before(self) -> None:
        if time.perf_counter() - self._taken > STALE_S:
            self._sample()

    def after(self) -> float:
        before = self._last
        self._sample()
        return (before + self._last) / 2 / self.nominal_s


def loop_clock() -> Clock:
    # nominal: the loop's median on the 2-vCPU host the bounds were set on
    return Clock(loop_s, 0.0125)


def fresh_clock() -> Clock:
    # nominal: the fresh reference's median on the same host
    return Clock(fresh_s, 0.15)
