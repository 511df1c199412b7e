"""The reference kernel, and timing in reference seconds.

The machine this benchmark runs on is shared, and its speed drifts by tens of
percent between runs.  Every timed call is therefore bracketed by two runs
of a fixed kernel, and its time is rescaled to what it would have taken had
the kernel run in ``K_REF`` seconds:

    reference time = raw time * K_REF / K,   K = mean of the two kernel times.

Each of the two kernel times is the median of three kernel runs.
The kernel calls nothing from ``affine_riccati``.  Like the program, it is an
interpreter-driven loop of numpy calls on small arrays (the Riccati stepper,
the verdict pipeline, the cascade bookkeeping) plus one sweep over a large
vector (the Euler step over an ensemble).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference machine (2-core x86-64 VM, Python 3.11,
# numpy 2.4), in seconds.
K_REF = 0.015

# The loop is kept short: over a shared machine's fast and slow spells the
# vector sweep tracks the program's times closely, while interpreter-bound
# loops swing by more than the program does.
LOOP_ITERATIONS = 250

_Y0 = np.array([0.25, -0.5, 0.75])
_W = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.5, 0.0, 1.0]])
_SWEEP = np.linspace(0.0, 4.0, 1_000_000)
# preallocated, so that the sweep's time does not depend on the allocator's
# state (a fresh 8 MB buffer costs page faults, a reused one does not)
_BUF = np.empty((2, _SWEEP.size))


def kernel() -> float:
    """Run the fixed reference loop once and return its wall time in seconds."""
    start = time.perf_counter()
    y = _Y0.copy()
    acc = 0.0
    for _ in range(LOOP_ITERATIONS):
        with np.errstate(invalid="ignore", divide="ignore"):
            f = np.sqrt(np.abs(y) + 1.0) - 0.1 * (_W @ y)
        y = y + 1e-3 * f
        acc += float(np.max(np.abs(f)))
    a, b = _BUF
    np.exp(np.negative(_SWEEP, out=a), out=a)
    np.multiply(np.sqrt(_SWEEP, out=b), a, out=a)
    np.add(a, np.log1p(_SWEEP, out=b), out=a)
    acc += float(a[::4096].sum())
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return elapsed


def gauge(runs: int = 3) -> float:
    """Median time of a few kernel runs, so that one preempted run does not
    skew the scale."""
    return statistics.median(kernel() for _ in range(runs))


class ReferenceClock:
    """Times calls in reference seconds, gauging the kernel around each one."""

    def __init__(self):
        self.kernel_times = []

    def time(self, fn, *args):
        """(result, reference seconds, raw seconds) of one call of fn."""
        k0 = gauge()
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        k1 = gauge()
        self.kernel_times += [k0, k1]
        return result, raw * K_REF / (0.5 * (k0 + k1)), raw
