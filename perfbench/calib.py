"""Machine-speed calibration for the end-to-end timings.

On a shared machine a fixed piece of work runs up to ~20 % slower or faster
from one minute to the next, and every operation of the program slows down
with it.  On the reference machine (a shared 2-vCPU Intel Xeon VM) the
10-second medians of a soft-sphere solve and of the kernel below correlated
at 0.98 over three minutes, and scaling by the kernel cut their spread from
12.6 % to 3.1 %.  So the benchmark times this fixed, program-independent
kernel between the operations of every pass and scales each operation's
time by ``REF_UNIT_S / median(kernel times)`` over the kernel times taken
closest to it.  The result reads in seconds on a machine where the kernel
takes ``REF_UNIT_S``; the raw times are recorded beside it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on the reference machine (2-vCPU Intel Xeon, one
# BLAS thread, Python 3.11, numpy 2.4)
REF_UNIT_S = 0.0085
INTERVAL_S = 0.2          # time the kernel once per this much work

_MATRIX = np.random.default_rng(0).random((120, 120))
_MATRIX = _MATRIX + _MATRIX.T


def kernel_seconds() -> float:
    """Time one run of the kernel: an interpreted float loop and a small
    symmetric eigenvalue problem, the two kinds of work bosegas does."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(100000):
        s += i * 0.5
    np.linalg.eigvalsh(_MATRIX)
    return time.perf_counter() - t0


class Speed:
    """Kernel times taken while one stretch of work runs, with the moment
    each was taken."""

    NEAREST = 11

    def __init__(self, first: int = 3):
        self.samples: list[tuple[float, float]] = []
        for _ in range(first):
            self._sample()

    def _sample(self) -> None:
        t = time.perf_counter()
        self.samples.append((t, kernel_seconds()))

    def tick(self) -> None:
        """Time the kernel once per INTERVAL_S passed since the last time
        (at most 5 times), so samples come at an even rate."""
        due = int((time.perf_counter() - self.samples[-1][0]) / INTERVAL_S)
        for _ in range(min(due, 5)):
            self._sample()

    def factor(self, t0: float, t1: float) -> float:
        """Scale for work done between t0 and t1, from the NEAREST kernel
        times taken closest to its midpoint."""
        mid = 0.5 * (t0 + t1)
        near = sorted(self.samples, key=lambda s: abs(s[0] - mid))
        return REF_UNIT_S / statistics.median(u for _, u in near[:self.NEAREST])
