"""Machine-speed probe and the clock that scales CPU time by it.

The benchmark machine is a shared VM whose speed moves between a few
levels (about 1× and 1.5–2× slower) for fractions of a second to minutes
at a time. The slowdown is slower execution, so process CPU time grows
with it as much as wall time does, and a whole run can sit in a slow
stretch. The workload process therefore measures the machine's speed with
a short fixed probe while it times the program, and reports CPU time at
reference speed.

The probe does the two kinds of work the library spends its time on:
interpreted Python on small tuples, sets and dicts (the ``groups`` and
``harmonic`` layers) and numpy calls on arrays of a few elements, as in
the per-block loop of the ``povm`` kernel. It takes about 1.5 ms and never
calls covpovm, so a change to the program cannot move it. It does no BLAS
matrix products: those slow down less than the commands in the machine's
slow stretches, and a probe that included them left commands reading up to
14% slower in a run that sat in the slow state.

``slowness()`` is the probe's CPU time over its reference time, a
dimensionless factor: 1.0 on the reference machine when it is quiet, about
1.5–2 in its slow stretches.

``ReferenceClock`` times one section of work (a command or a set-up
batch). It runs the probe when the section ends and, while it runs, every
``PROBE_PERIOD_S`` of wall time from a ``SIGALRM`` interval timer; a
section starts from the probe that ended the one before it, or from the
probe run when the clock is made. The section's CPU time is cut at the
probes into segments, and each segment is divided by the mean slowness of
the probes at its two ends. The speed state changes within a second, so
probing inside a command follows it far better than probing only around
the command: on a 0.8 s ``verify`` the quartile spread of single commands
fell from 0.12 to 0.02 of their median.
The probes' own CPU and wall time are left out of the section's times.
Commands and probe are both timed in process CPU time, so time the process
spends waiting for a CPU (other processes on the machine, a CPU quota) is
left out of both.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter, process_time

import numpy as np

# Probe times on the reference machine (2-vCPU Intel Xeon VM at 2.1 GHz,
# Python 3.11, numpy 2.4 on one OpenBLAS thread) in its quiet state.
PY_REFERENCE_S = 0.0010
NP_REFERENCE_S = 0.00048
# Wall seconds between probes inside a section: the probe costs about 5%
# of the section's wall time at this period.
PROBE_PERIOD_S = 0.03

_DIFF = np.array([[0, 1], [1, -1]])
_VALUES = np.arange(8) + 0j
_BLOCK = np.ones((2, 2, 2, 2), dtype=complex)


def _python_work() -> int:
    seen = set()
    acc = 0
    for i in range(3000):
        t = (i % 64, (i * 7) % 64)
        u = ((t[0] + 4) % 64, (t[1] * 3 + 1) % 64)
        seen.add(u)
        acc += hash(u) & 255
    table = {k: k[0] * k[1] for k in seen}
    return acc + len(table)


def _numpy_work() -> np.ndarray:
    for _ in range(100):
        factor = np.where(_DIFF >= 0, _VALUES[_DIFF], 0.0)
        block = (factor[:, :, None, None] * _BLOCK).transpose(0, 2, 1, 3).reshape(4, 4)
    return block


def slowness() -> float:
    """Geometric mean of the two probe CPU times over their reference times."""
    start = process_time()
    _python_work()
    middle = process_time()
    _numpy_work()
    end = process_time()
    return math.sqrt((middle - start) / PY_REFERENCE_S * (end - middle) / NP_REFERENCE_S)


class ReferenceClock:
    """Times sections of work in CPU seconds at reference speed.

    With ``sample=False`` the probe runs only at the ends of a section; the
    traced run uses this, so that no probe time falls inside a span.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.speed = slowness()
        self.active = False
        if sample:
            signal.signal(signal.SIGALRM, self._tick)

    def start(self) -> None:
        self.cpu = self.reference = self.probe_wall = 0.0
        self.wall_start = perf_counter()
        self.mark = process_time()
        self.active = True
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> dict:
        """Wall and CPU seconds of the section without the probes, its CPU
        seconds at reference speed and its mean slowness."""
        self.active = False
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._segment()
        wall = perf_counter() - self.wall_start - self.probe_wall
        return {
            "seconds": wall,
            "cpu_seconds": self.cpu,
            "reference_seconds": self.reference,
            "slowness": self.cpu / self.reference,
        }

    def _tick(self, signum, frame) -> None:
        if self.active:
            self.active = False
            self._segment()
            self.active = True

    def _segment(self) -> None:
        now = process_time()
        wall = perf_counter()
        speed = slowness()
        self.probe_wall += perf_counter() - wall
        self.cpu += now - self.mark
        self.reference += (now - self.mark) / ((self.speed + speed) / 2)
        self.speed = speed
        self.mark = process_time()
