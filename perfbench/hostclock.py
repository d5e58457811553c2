"""Timing in seconds at a fixed reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to +-30% within seconds to minutes: the same ``run()`` call takes 50 ms in
one second and 100 ms a few seconds later, and CPU time follows wall time.
Medians over a run cannot remove drift that is slower than the run.

A ``Clock`` therefore times a fixed calibration kernel right before and
right after every timed interval, and scales the interval by ``REF_S`` over
the mean of those two kernel times.  Each workload picks the kernel that
uses the host the way its runs do: ``small_arrays`` (interpreter work on
d=100 vectors) or ``dense_gemv`` (products with a 300 x 1000 matrix), since
the two drift apart.  The kernels are the benchmark's own code, so a change
to ipiag cannot change them; a change that makes ipiag slower lengthens the
interval but not the kernel.  The raw seconds are kept next to the scaled
ones.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# Seconds one kernel pass takes at the reference speed; the scaled times
# are seconds on a host where the kernel takes exactly this long.
REF_S = 0.010


def _check(acc: float) -> None:
    if not (np.isfinite(acc) and acc > 0.0):
        raise RuntimeError("calibration kernel produced a wrong sum")


@functools.cache
def _small():
    return np.random.default_rng(0).standard_normal((4, 100))


@functools.cache
def _dense():
    rng = np.random.default_rng(0)
    return rng.standard_normal((300, 1000)), rng.standard_normal(300)


def small_arrays() -> float:
    """Seconds of one pass of a prox-gradient loop on d=100 vectors."""
    rows = _small()
    t0 = time.perf_counter()
    x, g, acc = np.zeros(100), np.zeros(100), 0.0
    for k in range(1200):
        g = g - 0.5 * rows[k & 3]
        x = x - 0.01 * g
        x = np.sign(x) * np.maximum(np.abs(x) - 1e-4, 0.0)
        acc += float(x @ x)
    seconds = time.perf_counter() - t0
    _check(acc)
    return seconds


def dense_gemv() -> float:
    """Seconds of one pass of a lasso-like loop: block gradients and full objectives."""
    a, b = _dense()
    t0 = time.perf_counter()
    x, acc = np.zeros(1000), 0.0
    for k in range(80):
        rows = slice(100 * (k % 3), 100 * (k % 3) + 100)
        x = x - 1e-4 * (a[rows].T @ (a[rows] @ x - b[rows]))
        x = np.sign(x) * np.maximum(np.abs(x) - 1e-6, 0.0)
        r = a @ x - b
        acc += 0.5 * float(r @ r) + float(np.abs(x).sum())
    seconds = time.perf_counter() - t0
    _check(acc)
    return seconds


class Clock:
    """Times intervals in raw seconds and in seconds at the reference speed."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.before = None
        self.t0 = 0.0
        self.kernels: list = []

    def start(self) -> None:
        if self.before is None:
            self.before = self._kernel()
        self.t0 = time.perf_counter()

    def stop(self) -> tuple:
        """(raw seconds, scaled seconds) since ``start``."""
        raw = time.perf_counter() - self.t0
        after = self._kernel()
        scaled = raw * 2.0 * REF_S / (self.before + after)
        self.before = after
        return raw, scaled

    def _kernel(self) -> float:
        seconds = self.kernel()
        self.kernels.append(seconds)
        return seconds
