"""Reference kernels: fixed work that every timed op is measured against.

The benchmark's host shares its cores with other work, and their speed
swings by up to 2x over periods of seconds to minutes.  A run that lands in
a slow period reads slow on every op, so op times in seconds spread between
runs by more than any useful bound.  run.py therefore runs the workload's
reference kernel right before and right after each op and reports each op's
latency as a multiple of the mean of those two reference times (the unit
"ref").  The slowdown then cancels, as long as the kernel slows down as the
op does, so each workload uses the kernel that does the kind of work its op
spends its time on:

- dispatch: a loop of small numpy calls on a 15-point array, the mix of
  interpreter and numpy dispatch that dominates `overlap()` and the
  Gauss-Kronrod panels (`frame`, `sweep`);
- matvec: products of a 61 x 4096 complex matrix with a phase-rotated
  vector, the product `resolution_check` forms at every abscissa
  (`resolution`).  It streams 4 MB per product and slows down less than
  dispatch when the host is busy, as `resolution` does.

The kernels must not change once runs are compared against them: a
different kernel is a different unit.
"""

from __future__ import annotations

import time

import numpy as np

ROUNDS = 4000
_X = np.linspace(0.0, 1.0, 15)

PRODUCTS = 40
_N, _ROWS = 4096, 61
_RNG = np.random.default_rng(0)
_Q = np.arange(-(_N // 2), _N // 2)
_MATRIX = _RNG.standard_normal((_ROWS, _N)) + 1j * _RNG.standard_normal((_ROWS, _N))
_VECTOR = _RNG.standard_normal(_N) + 1j * _RNG.standard_normal(_N)


def dispatch() -> float:
    """Small numpy calls in a Python loop; about 20 ms on an idle 2-vCPU Xeon."""
    x = _X
    total = 0.0
    for i in range(ROUNDS):
        total += float(np.sum(np.exp(-x * (i * 1e-3)) * x))
    return total


def matvec() -> float:
    """Matrix-vector products over 4 MB; about 10 ms on an idle 2-vCPU Xeon."""
    total = 0.0
    for i in range(PRODUCTS):
        p = _MATRIX @ (_VECTOR * np.exp(1j * _Q * (i * 1e-2)))
        total += float(np.sum(p.real**2 + p.imag**2))
    return total


def seconds(kernel) -> float:
    """Wall time of one pass of a kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
