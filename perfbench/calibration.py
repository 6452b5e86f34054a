"""A reference kernel for scaling measured times to one fixed CPU speed.

Shared machines drift in speed.  On a 2-core Xeon virtual machine the wall
time of one n = 4 solve ranged from 44 to 57 s, and that of one fidelity op
from 24 to 39 ms, while their ratios to the time of the kernel below moved
far less.  ``SpeedProbe`` therefore times this kernel, which shares no code
with qparity, just before and just after each measured call and every
``PERIOD`` seconds during it, and scales the call's wall time to a machine on
which the kernel takes ``REF_SECONDS``:

    scaled = (wall - kernel time spent inside the call) * REF_SECONDS
             / (trimmed mean kernel time over the call)

The periodic samples come from SIGALRM on the benchmark's own thread (no
worker threads).  Each sample times the second of two back-to-back kernel
runs, so it does not pay for the caches the interrupted call left behind.  ``REF_SECONDS`` is close to the kernel's time on that
machine, so scaled and wall times are of the same size there; both are
reported.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_SECONDS = 0.003
PERIOD = 0.1    # seconds between samples inside a call
BRACKET = 3     # kernel runs just before and just after a call


def _kernel() -> float:
    # the program's mix: small complex numpy arrays, scalar float and dict work
    x = np.linspace(1.0, 2.0, 256)
    acc = 0.0
    for i in range(150):
        phase = np.angle(np.exp(1j * x * (i + 1)))
        acc += float(np.mod(phase[i % 256] + 3.14159, 6.283185))
    table = {}
    for i in range(3000):
        table[i * 0.5] = i
    return acc + len(table)


class SpeedProbe:
    """Kernel samples taken around and during measured calls."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0      # kernel seconds, to subtract from calls they interrupt
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # an alarm during a sample: skip, do not nest
            return
        self._busy = True
        start = time.perf_counter()
        try:
            _kernel()  # warm: a sample taken right after the op evicted it reads slow
            t0 = time.perf_counter()
            _kernel()
            elapsed = time.perf_counter() - t0
            self.samples.append(elapsed)
            self.spent += time.perf_counter() - start
        finally:
            self._busy = False

    def measure(self, fn, *args):
        """Call fn(*args); return (result, wall seconds, scaled seconds)."""
        for _ in range(BRACKET):
            self.sample()
        first, spent0 = len(self.samples) - BRACKET, self.spent
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall = t1 - t0 - (self.spent - spent0)
        for _ in range(BRACKET):
            self.sample()
        return result, wall, wall * REF_SECONDS / _trimmed_mean(self.samples[first:])


def _trimmed_mean(values: list) -> float:
    """Mean without the top and bottom tenth (at least one each from five
    samples on), so one sample stretched by a pause does not move it."""
    ordered = sorted(values)
    k = max(1, len(ordered) // 10) if len(ordered) >= 5 else 0
    return statistics.fmean(ordered[k:len(ordered) - k])
