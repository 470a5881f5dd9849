"""Machine-speed normalisation for the benchmark's timings.

On a shared box the same Python instructions run up to 2x slower or faster
from one second to the next as neighbours load the cores; process CPU time
drifts just as much.  The benchmark therefore times a fixed piece of its own
pure-Python work, the reference kernel, right before and after each measured
step and, from a SIGALRM timer, every INTERVAL seconds during it.  A step's
cost in ``ref`` units is its wall time, less the time spent in the probe,
divided by the mean kernel time over the step: the number of kernel runs the
step is worth.  A cost that must be given in seconds is ref * REF_SECONDS,
the step's time on a machine where the kernel takes exactly REF_SECONDS
(about the kernel's typical time on a 2-core Xeon VM).  The kernel belongs
to the benchmark, so no change to pqlab moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_SECONDS = 0.001


# log/antilog tables of a toy field, for the kernel's table multiplications
_EXP = [(i * 37 + 11) % 255 + 1 for i in range(512)]
_LOG = [(i * 91) % 255 for i in range(256)]


def _table_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work (about 1.3 ms on
    a 2-core Xeon VM) in pqlab's idiom: small-int table multiplications
    through a function call, list building, and XOR elimination on 200-bit
    rows.  Of the kernels tried, this one's slowdown under load tracked
    pqlab's conv_mul, sqrt_mod_g and invert most closely."""
    start = time.perf_counter()
    coeffs = list(range(1, 41))
    for _ in range(12):
        out = [0] * 80
        for i, a in enumerate(coeffs):
            for j in range(0, 40, 4):
                out[i + j] ^= _table_mul(a, coeffs[j])
        coeffs = [c % 255 + 1 for c in out[:40]]
    rows = [(1 << 200) - 1 - i * 7919 for i in range(60)]
    for col in range(60):
        mask, pivot = 1 << col, rows[col]
        for i in range(60):
            if i != col and rows[i] & mask:
                rows[i] ^= pivot
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the interpreter's speed while a step runs.

    Only the main thread may use it, since it owns SIGALRM while sampling;
    ``close`` gives the signal back.
    """

    INTERVAL = 0.025

    def __init__(self):
        self._samples: list[float] = []
        self._spent = 0.0
        self._sampling = False
        self._installed = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._sampling:
            start = time.perf_counter()
            self._samples.append(reference_kernel())
            self._spent += time.perf_counter() - start

    def measure(self, fn, sample_during: bool = True):
        """Call fn(); return (its result, net wall seconds, mean kernel
        seconds).  Without sample_during the kernel runs only before and
        after the step, so nothing lands inside it."""
        self._samples = [reference_kernel()]
        self._spent = 0.0
        if sample_during:
            if not self._installed:
                self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
                self._installed = True
            self._sampling = True
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            if self._sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self._sampling = False
        self._samples.append(reference_kernel())
        return result, wall - self._spent, statistics.fmean(self._samples)

    def close(self) -> None:
        if self._installed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._installed = False
