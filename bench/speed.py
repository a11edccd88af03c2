"""Correction of measured times for the speed the host gives this process.

On a shared host the same op can take up to 1.6 times longer from one minute
to the next, with the code and input unchanged. A fixed plain-Python kernel
is timed between consecutive measurements. It does interpreter-bound work
like the pure-Python Jacobi solver, so its time tracks the host's speed at
that moment. Each measurement is scaled by NOMINAL_S over the mean kernel
time just before and just after it. The result is the time the work would
take at the speed where the kernel takes NOMINAL_S.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.018  # kernel time at nominal speed, about that of an unloaded host
_SIZE = 20
_REPS = 2
_MATRIX = np.random.default_rng(0).normal(size=(_SIZE, _SIZE))
_MATRIX = _MATRIX + _MATRIX.T


def _kernel() -> float:
    """Two cyclic Jacobi sweeps on a fixed symmetric matrix, element by element."""
    a = _MATRIX.copy()
    for _ in range(2):
        for p in range(_SIZE - 1):
            for q in range(p + 1, _SIZE):
                apq = a[p, q]
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau))
                t = t if tau >= 0.0 else -t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                for i in range(_SIZE):
                    aip, aiq = a[i, p], a[i, q]
                    a[i, p], a[i, q] = aip * c - aiq * s, aiq * c + aip * s
                for i in range(_SIZE):
                    api, aqi = a[p, i], a[q, i]
                    a[p, i], a[q, i] = api * c - aqi * s, aqi * c + api * s
    return float(np.trace(a))


def kernel_seconds() -> float:
    start = time.perf_counter()
    for _ in range(_REPS):
        _kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Times the kernel once now and once at each `factor` call."""

    def __init__(self):
        self._last = kernel_seconds()

    def factor(self) -> float:
        """Multiplier from a time measured since the previous call to nominal speed."""
        now = kernel_seconds()
        mean, self._last = (self._last + now) / 2.0, now
        return NOMINAL_S / mean
