"""Reference kernel that gauges the host's speed beside the requests.

On a shared host the speed of a core swings by up to 2x within seconds
and over minutes, and the whole run moves with it. The benchmark times
this fixed kernel between requests and rescales each request's time by
the kernel's time around it, so that a run reports the program's cost
at one nominal host speed. The kernel does what the package's hot path
does, at the same sizes: IRLS steps of a Poisson GLM on a 28 x 13
chain-ladder design (the Australian triangle's shape), with small numpy
array operations, a normal-equation solve and ``gammaln``. It uses no
package code, so a change to the package cannot change it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy.special import gammaln

# Median seconds of one sample on the host that defined the benchmark;
# rescaled times are quoted at this speed.
REFERENCE_S = 0.0075

_N_AY = 7
_FITS = 30
_STEPS = 8
_REPEATS = 3


def _design() -> tuple:
    rows = [(i, j) for i in range(_N_AY) for j in range(_N_AY - i)]
    x = np.zeros((len(rows), 2 * _N_AY - 1))
    x[:, 0] = 1.0
    for r, (i, j) in enumerate(rows):
        if i:
            x[r, i] = 1.0
        if j:
            x[r, _N_AY - 1 + j] = 1.0
    y = np.random.default_rng(20240517).poisson(60.0, size=len(rows)).astype(float)
    return x, y


_X, _Y = _design()


def _kernel() -> float:
    x, y = _X, _Y
    total = 0.0
    for f in range(_FITS):
        beta = np.zeros(x.shape[1])
        beta[0] = np.log(y.mean())
        for _ in range(_STEPS):
            eta = x @ beta
            mu = np.exp(eta)
            z = eta + (y - mu) / mu
            xw = x.T * mu
            beta = np.linalg.solve(xw @ x, xw @ z)
        kappa = 1.0 + f
        total += float(np.sum(gammaln(y + kappa) - gammaln(kappa) - gammaln(y + 1.0)))
    return total


def sample() -> float:
    """Median seconds of a few runs of the kernel, now."""
    times = []
    for _ in range(_REPEATS):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two samples, at the nominal speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
