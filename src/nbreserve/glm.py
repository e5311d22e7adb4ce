"""Two-way cross-classified count GLM with a log link.

The model is log mu[i, j] = alpha_i + beta_j over accident-year and
development-year factors, fitted under Poisson, quasi-Poisson, or
fixed-dispersion negative binomial families. The negative binomial uses
the mean-dispersion parameterisation E[N] = mu, Var[N] = mu + mu^2 / kappa,
so kappa -> infinity recovers the Poisson.

Every fit takes the same iteratively reweighted least-squares step: a
Newton step with the observed information (:func:`_newton_terms`),
halved within the deviance's rounding slack, and stops on one rule:
when its Newton decrement is at rounding level, on a scale set by its
total working weight. :func:`_irls` fits one triangle, :func:`_irls_batch`
a batch of triangles with the same arithmetic, and the joint dispersion
fit of :mod:`nbreserve.dispersion` takes its coefficient steps from
:func:`_newton_step`. Under the log link the Poisson's observed and
expected information coincide, so its step is the Fisher-scoring step;
the Poisson is the kappa -> infinity end of the same step.

Fits are computed under treatment contrasts (first accident year and
development year 0 as baselines) and re-expressed on the simplex scale,
where the development effects exponentiate to weights summing to one.

The other modules share its layout: the observed and future cells of
a square triangle (:func:`triangle_cells`), records to counts and a
design (:func:`_prepare`), and the Pearson statistic behind every
quasi-Poisson phi (:func:`pearson_statistic`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import NotConvergedError, RankDeficientError, SeparationError

# Linear predictors are clipped here before exponentiation; exp(+-500)
# stays finite in float64 while leaving real fits untouched.
_ETA_BOUND = 500.0

_CONDITION_WARN = 1e3

# Iteration budget, rounding slack and stop rule of the coefficient
# Newton step, shared by every fit. Each cell's deviance carries a
# rounding error of about 1e-16 (y + kappa), which near the optimum
# exceeds a step's gain. A fit stops when its Newton decrement, the
# log-likelihood gain the step predicts, is at most
# max(_DECREMENT_TOL, _DECREMENT_PER_WEIGHT * sum(w)): the decrement's
# rounding floor grows with the total working weight sum(w), so the
# rule holds at any scale of the counts.
_IRLS_MAX_ITER = 100
_DEV_SLACK = 1e-14
_DECREMENT_TOL = 1e-20
_DECREMENT_PER_WEIGHT = 1e-26

# kappa from which the NB log-likelihood and its kappa score are summed
# from large-kappa expansions
_KAPPA_SERIES = 1e3


class ConditioningWarning(UserWarning):
    """Weighted information matrix is poorly conditioned."""


@dataclass(frozen=True)
class Family:
    """Distributional family for the count GLM.

    ``tag`` is one of ``poisson``, ``quasipoisson``, ``negbin``;
    ``kappa`` is the fixed dispersion for the negative binomial.
    """

    tag: str
    kappa: Optional[float] = None

    @classmethod
    def poisson(cls) -> "Family":
        return cls("poisson")

    @classmethod
    def quasi_poisson(cls) -> "Family":
        return cls("quasipoisson")

    @classmethod
    def negbin(cls, kappa: float) -> "Family":
        if not kappa > 0:
            raise ValueError(f"kappa must be positive, got {kappa}")
        return cls("negbin", float(kappa))

    def variance(self, mu: np.ndarray) -> np.ndarray:
        if self.tag == "negbin":
            return mu + mu * mu / self.kappa
        return mu

    def working_weight(self, mu: np.ndarray) -> np.ndarray:
        # (dmu/deta)^2 / V(mu) for the log link
        if self.tag == "negbin":
            return mu * self.kappa / (self.kappa + mu)
        return mu

    def deviance(self, y: np.ndarray, mu: np.ndarray) -> float:
        return float(2.0 * np.sum(_unit_deviance(y, mu, self.kappa if self.tag == "negbin" else None)))


def _unit_deviance(y: np.ndarray, mu: np.ndarray, kappa) -> np.ndarray:
    """Per-cell deviance halves; ``kappa`` None is Poisson, else negative binomial.

    ``kappa`` may be a column of per-row values broadcasting over rows of ``y``.
    """
    if kappa is None:
        return xlogy(y, y / mu) - (y - mu)
    return xlogy(y, y / mu) - (y + kappa) * np.log((y + kappa) / (mu + kappa))


def poisson_loglik(counts, mu) -> float:
    """Poisson log-likelihood of ``counts`` at cell means ``mu``."""
    y = _as_counts(counts)
    mu = np.asarray(mu, dtype=float)
    return float(np.sum(xlogy(y, mu) - mu - gammaln(y + 1.0)))


def nb_loglik(counts, mu, kappa: float) -> float:
    """Negative binomial log-likelihood in the mean-dispersion form.

    Uses log1p(mu / kappa) so the Poisson limit is reached cleanly as
    kappa grows toward the search cap. There gammaln(y + kappa) and
    gammaln(kappa) are of size kappa log kappa and cancel to a term of
    size y, losing about 1e-6 at kappa = 1e8; from ``_KAPPA_SERIES`` on
    their difference is therefore taken from Stirling's series, whose
    every term has the size of y.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    y = _as_counts(counts)
    mu = np.asarray(mu, dtype=float)
    ky = y + kappa
    # log Gamma(y + kappa) - log Gamma(kappa) - y log kappa
    if kappa < _KAPPA_SERIES:
        lgamma_ratio = gammaln(ky) - gammaln(kappa) - y * np.log(kappa)
    else:
        lgamma_ratio = (
            (ky - 0.5) * np.log1p(y / kappa) - y + _stirling_remainder(ky) - _stirling_remainder(kappa)
        )
    return float(np.sum(lgamma_ratio - gammaln(y + 1.0) - ky * np.log1p(mu / kappa) + xlogy(y, mu)))


def _stirling_remainder(x):
    """gammaln(x) - ((x - 1/2) log x - x + log(2 pi) / 2) for x >= ``_KAPPA_SERIES``.

    The first omitted term of the series is below 1 / (1680 x^7).
    """
    x2 = x * x
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x2)) / x2) / x


def _as_counts(counts) -> np.ndarray:
    """Accept an array of counts or a sequence of CellRecord-like triples."""
    if len(counts) and hasattr(counts[0], "count"):
        return np.array([r.count for r in counts], dtype=float)
    return np.asarray(counts, dtype=float)


@dataclass(frozen=True)
class Design:
    """Indicator design for the two-way layout, built from factor indices."""

    ay_idx: np.ndarray  # 0-based accident-year level per cell
    dy_idx: np.ndarray  # 0-based development-year level per cell
    n_ay: int
    n_dy: int
    X: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def build_design(ay: Sequence[int], dy: Sequence[int], n_ay: Optional[int] = None, n_dy: Optional[int] = None) -> Design:
    """Build the treatment-contrast design for given factor levels.

    Columns: intercept, accident years 2..I, development years 1..J-1,
    so p = 1 + (I - 1) + (J - 1).
    """
    ay_idx = np.asarray(ay, dtype=np.int64) - 1
    dy_idx = np.asarray(dy, dtype=np.int64)
    if ay_idx.min(initial=0) < 0 or dy_idx.min(initial=0) < 0:
        raise ValueError("accident years are 1-based, development years 0-based")
    n_ay = int(n_ay) if n_ay is not None else int(ay_idx.max()) + 1
    n_dy = int(n_dy) if n_dy is not None else int(dy_idx.max()) + 1
    n = len(ay_idx)
    p = 1 + (n_ay - 1) + (n_dy - 1)
    X = np.zeros((n, p))
    X[:, 0] = 1.0
    rows = np.arange(n)
    mask_a = ay_idx > 0
    X[rows[mask_a], ay_idx[mask_a]] = 1.0
    mask_b = dy_idx > 0
    X[rows[mask_b], n_ay - 1 + dy_idx[mask_b]] = 1.0
    return Design(ay_idx=ay_idx, dy_idx=dy_idx, n_ay=n_ay, n_dy=n_dy, X=X)


def triangle_cells(I: int) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """0-based (ay, dy) indices of the observed and the future cells of an I x I triangle.

    A cell is future when ay + dy >= I. Both sets are row-major, so the
    observed cells come in the order of ``triangle.to_long``.
    """
    future = np.add.outer(np.arange(I), np.arange(I)) >= I
    return np.nonzero(~future), np.nonzero(future)


def _newton_terms(y: np.ndarray, mu: np.ndarray, kappa):
    """Working weights and response of the coefficient Newton step at fixed kappa.

    The weights mu kappa (kappa + y) / (kappa + mu)^2 are each cell's
    observed information, positive for every count; the response z is
    the cell's score kappa (y - mu) / (kappa + mu) per unit of it, so the
    step solves X^T W X delta = X^T W z. ``kappa`` is a scalar, a column
    of per-row values, or None for the Poisson, whose weights mu and
    response (y - mu) / mu are the limit as kappa grows; under the log
    link they are also its Fisher-scoring weights and response.
    """
    if kappa is None:
        return mu, (y - mu) / mu
    w = mu / (kappa + mu) * (kappa / (kappa + mu)) * (kappa + y)
    z = (y - mu) / mu * ((kappa + mu) / (kappa + y))
    return w, z


def _irls(
    y: np.ndarray,
    design: Design,
    family: Family,
    start: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, float, List[float], bool, int]:
    """Newton iterations with the observed information, at the family's fixed kappa.

    Each step solves X^T W X delta = X^T W z with the weights and
    response of :func:`_newton_terms` and is halved until the deviance
    does not rise by more than its rounding slack, ``_DEV_SLACK`` times
    sum(y + kappa) (kappa 0 for the Poisson). With no ``start`` the
    first step is taken whole from log(y + 0.5), in the IRLS form, which
    solves for the new coefficients from the working response eta + z.

    A fit has converged when a step's Newton decrement is at most
    max(``_DECREMENT_TOL``, ``_DECREMENT_PER_WEIGHT`` * sum(w)), which
    does not depend on the scale of the counts. It stops unconverged on
    a singular system, when no halving keeps the deviance down, when a
    mean reaches the clip of the linear predictor, or after
    ``_IRLS_MAX_ITER`` steps.

    Returns (coef, mu, deviance, deviance_path, converged, n_iter).
    """
    X = design.X
    kappa = family.kappa if family.tag == "negbin" else None
    slack = _DEV_SLACK * np.sum(y if kappa is None else y + kappa)
    if start is None:
        coef, eta, dev = np.full(design.p, np.nan), np.log(y + 0.5), np.inf
        mu = np.exp(np.clip(eta, -_ETA_BOUND, _ETA_BOUND))
    else:
        coef = np.asarray(start, dtype=float)
        mu = np.exp(np.clip(X @ coef, -_ETA_BOUND, _ETA_BOUND))
        dev = family.deviance(y, mu)
    dev_path: List[float] = []
    converged = False
    n_iter = 0

    for n_iter in range(1, _IRLS_MAX_ITER + 1):
        whole = n_iter == 1 and start is None
        w, z = _newton_terms(y, mu, kappa)
        Xw = X * w[:, None]
        g = X.T @ (w * (eta + z)) if whole else Xw.T @ z
        try:
            delta = np.linalg.solve(Xw.T @ X, g)
        except np.linalg.LinAlgError:
            break
        cand = delta if whole else coef + delta
        limit = dev + slack
        for _ in range(30):
            eta = np.clip(X @ cand, -_ETA_BOUND, _ETA_BOUND)
            mu_c = np.exp(eta)
            dev_c = family.deviance(y, mu_c)
            if np.isfinite(dev_c) and dev_c <= limit:
                break
            cand = 0.5 * (cand + coef)
        else:
            break
        coef, mu, dev = cand, mu_c, dev_c
        dev_path.append(dev)
        if np.any(np.abs(eta) >= _ETA_BOUND):
            break
        converged = not whole and abs(g @ delta) <= max(_DECREMENT_TOL, _DECREMENT_PER_WEIGHT * np.sum(w))
        if converged:
            break

    return coef, mu, dev, dev_path, converged, n_iter


def _rows_dot(X: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Linear predictor X @ coef[r] for each row r of ``coef``.

    A stacked matmul computes each row on its own, so a row's result
    does not depend on which other rows share the batch.
    """
    return (X @ coef[:, :, None])[:, :, 0]


def _solve_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each system A[r] x = b[r]; rows with a singular A give NaN."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for r in range(len(A)):
            try:
                out[r] = np.linalg.solve(A[r], b[r])
            except np.linalg.LinAlgError:
                pass
        return out


class _NormalEquations:
    """Weighted normal equations X^T W X of one design for a batch of rows.

    Each call writes the weighted design W X into X's nonzero entries of
    one buffer, whose other entries stay zero. ``pin`` (m, p) marks the
    coefficients each row holds at zero: a pinned coefficient's equation
    becomes x = 0. Rows are addressed by their index into ``pin``.
    """

    def __init__(self, X: np.ndarray, m: int, pin: Optional[np.ndarray] = None):
        self.X, self.pin = X, pin
        self.cell, self.col = np.nonzero(X)
        self.xval = X[self.cell, self.col]
        self.buf = np.zeros((m,) + X.shape)
        if pin is not None:
            self.free = ~pin
            self.keep = self.free[:, :, None] & self.free[:, None, :]

    def weigh(self, rows: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Weighted design W X and information X^T W X of ``rows``, pins applied."""
        Xw = self.buf[: rows.size]
        Xw[:, self.cell, self.col] = w[:, self.cell] * self.xval
        A = Xw.transpose(0, 2, 1) @ self.X
        if self.pin is not None:
            p = self.X.shape[1]
            A = A * self.keep[rows]
            A[:, np.arange(p), np.arange(p)] += self.pin[rows]
        return Xw, A

    def solve(self, rows: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Each row's solution of A x = b with its pinned entries zero; NaN where A is singular."""
        if self.pin is not None:
            b = b * self.free[rows]
        return _solve_rows(A, b)


def _newton_step(
    normal: _NormalEquations, live: np.ndarray, Y: np.ndarray, coef: np.ndarray, mu: np.ndarray,
    k: Optional[np.ndarray], mask: Optional[np.ndarray], eta: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step of :func:`_irls` for the rows ``live`` of a batch, at fixed kappa.

    Row r's weights and response come from :func:`_newton_terms` at its
    counts Y[r], means mu[r] and kappa (``k``, a column over ``live``,
    or None for the Poisson); its normal equations are ``normal``'s,
    with its pins. The step is halved until the row's deviance does not
    rise by more than ``_DEV_SLACK`` times its sum of y + kappa. Cells
    outside ``mask`` get zero weight and add nothing to either. Given
    the linear predictors ``eta`` (m, n) of the batch, the step is a
    cold start's: taken whole, in the IRLS form, from the working
    response eta + z. ``coef`` and ``mu`` are updated in place for the
    rows that take a step.

    Returns (decrement, tol, failed) per row of ``live``: the Newton
    decrement g^T delta (infinite for a whole step), the decrement at
    or below which the row has converged, max(``_DECREMENT_TOL``,
    ``_DECREMENT_PER_WEIGHT`` times its total working weight), and
    whether the system was singular, no halving kept the deviance down
    or a kept mean reached the clip of the linear predictor.
    """
    X = normal.X
    y, old, mu_l = Y[live], coef[live], mu[live]

    def kept(a, rows):
        return a if mask is None else a * mask[rows]

    def deviance(rows, mu_r):
        return 2.0 * np.sum(kept(_unit_deviance(y[rows], mu_r, None if k is None else k[rows]), live[rows]), axis=1)

    w, z = _newton_terms(y, mu_l, k)
    w = kept(w, live)
    tol = np.maximum(_DECREMENT_TOL, _DECREMENT_PER_WEIGHT * np.sum(w, axis=1))
    Xw, A = normal.weigh(live, w)
    if eta is None:
        g = (Xw.transpose(0, 2, 1) @ z[:, :, None])[:, :, 0]
    else:
        g = (X.T @ (w * (eta[live] + z))[:, :, None])[:, :, 0]
    delta = normal.solve(live, A, g)
    failed = np.isnan(delta).any(axis=1)
    if eta is None:
        decrement, cand = np.sum(g * delta, axis=1), old + delta
        limit = deviance(slice(None), mu_l) + _DEV_SLACK * np.sum(kept(y if k is None else y + k, live), axis=1)
    else:
        decrement, cand, limit = np.full(live.size, np.inf), delta, np.full(live.size, np.inf)

    # step halving: each row takes the first of cand, (cand + old) / 2, ...
    # within 30 halvings that keeps its deviance within the slack
    step = np.zeros(live.size, dtype=bool)
    eta_c = np.empty((live.size, X.shape[0]))
    pend = np.nonzero(~failed)[0]
    for _ in range(30):
        e = np.clip(_rows_dot(X, cand[pend]), -_ETA_BOUND, _ETA_BOUND)
        d = deviance(pend, np.exp(e))
        good = np.isfinite(d) & (d <= limit[pend])
        step[pend[good]] = True
        eta_c[pend[good]] = e[good]
        pend = pend[~good]
        if pend.size == 0:
            break
        cand[pend] = 0.5 * (cand[pend] + old[pend])
    # within the slack a Newton step near the optimum is always taken; a
    # row that takes none, or whose kept means reach the clip, has a
    # likelihood rising without bound
    failed[pend] = True
    failed[step] |= np.any(kept(np.abs(eta_c[step]) >= _ETA_BOUND, live[step]), axis=1)
    coef[live[step]] = cand[step]
    mu[live[step]] = np.exp(eta_c[step])
    return decrement, tol, failed


def _irls_batch(
    Y: np.ndarray,
    X: np.ndarray,
    kappa: Optional[np.ndarray] = None,
    start: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
    pin: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_irls` on every row of the count matrix ``Y`` at once.

    Row r is fitted on the shared design matrix ``X`` under the
    negative binomial with dispersion ``kappa[r]``, or the Poisson when
    ``kappa`` is None. ``start`` is one coefficient vector for all rows,
    a matrix with one per row, or None for the log(y + 0.5) start. Each
    row takes :func:`_irls`'s steps (:func:`_newton_step`) with the same
    arithmetic and stop rule, so it gets the scalar fit's coefficients
    and means bit for bit, and stops iterating once it has converged or
    failed.

    ``mask`` (m, n) marks the cells each row is fitted on and ``pin``
    (m, p) the coefficients it holds at zero; both default to none left
    out. A cell outside the mask gets zero working weight and adds
    nothing to the deviance. A pinned coefficient's equation becomes
    x = 0, so row r solves the fit of its kept cells on its free
    coefficients; its start must have the pinned entries at zero. A row
    with every cell kept and nothing pinned gets bit for bit the result
    it gets without masks.

    Returns (coef, mu, ok); ok is False for rows on which :func:`_irls`
    would not converge.
    """
    m, p = len(Y), X.shape[1]
    k = None if kappa is None else np.asarray(kappa, dtype=float)[:, None]
    normal = _NormalEquations(X, m, pin)
    coef = np.full((m, p), np.nan)
    if start is None:
        eta = np.log(Y + 0.5)
    else:
        start = np.asarray(start, dtype=float)
        coef[:] = start
        eta = np.tile(X @ start, (m, 1)) if start.ndim == 1 else _rows_dot(X, coef)
    mu = np.exp(np.clip(eta, -_ETA_BOUND, _ETA_BOUND))
    ok = np.zeros(m, dtype=bool)
    live = np.arange(m)

    for it in range(_IRLS_MAX_ITER):
        if live.size == 0:
            break
        whole = it == 0 and start is None
        decrement, tol, failed = _newton_step(
            normal, live, Y, coef, mu, None if k is None else k[live], mask, eta if whole else None
        )
        done = ~failed & (np.abs(decrement) <= tol)
        ok[live[done]] = True
        live = live[~(done | failed)]

    return coef, mu, ok


def drop_masks(design: Design, ay_keep: np.ndarray, dy_keep: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Kept cells (m, n) and pinned coefficients (m, p) of ``design`` for rows keeping the given levels.

    ``ay_keep`` (m, n_ay) and ``dy_keep`` (m, n_dy) mark each row's
    kept accident and development years; a cell is kept when both of
    its levels are. Each dropped level's coefficient is pinned at zero;
    when a baseline level (accident year 1 or development year 0) is
    dropped, the first kept level of its factor is pinned too, so the
    intercept takes its place. What is left free is then the reduced
    design's parameterisation of the kept levels.
    """
    m = len(ay_keep)
    mask = ay_keep[:, design.ay_idx] & dy_keep[:, design.dy_idx]
    rows = np.arange(m)
    ay_pin, dy_pin = ~ay_keep, ~dy_keep
    ay_pin[rows, np.argmax(ay_keep, axis=1)] |= ay_pin[:, 0]
    dy_pin[rows, np.argmax(dy_keep, axis=1)] |= dy_pin[:, 0]
    pin = np.hstack((np.zeros((m, 1), dtype=bool), ay_pin[:, 1:], dy_pin[:, 1:]))
    return mask, pin


def _chain_ladder_batch(
    Y: np.ndarray,
    design: Design,
    mask: Optional[np.ndarray] = None,
    pin: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Poisson fit of every row of ``Y`` in closed form, by the chain-ladder.

    On a layout whose every accident year is observed on a prefix of the
    development years, the Poisson maximum-likelihood means are the
    chain-ladder's (Renshaw & Verrall 1998): with C the cumulated counts,
    the factor f_j = sum C[i, j] / sum C[i, j - 1] over the years
    observed at j gives the share of development year j of the
    ultimate, and each year's observed total gives its ultimate. A
    level with a zero total adds nothing to those sums, so the same
    recursion fits the kept levels of a drop pattern.

    ``mask`` and ``pin`` are as for :func:`_irls_batch`; a row is taken
    when they are what :func:`drop_masks` gives for its zero-total
    levels (no mask and no pin when it has none). Its coefficients are
    those parameters, with the first kept level of each factor as the
    baseline, and its means are exp(X coef). Returns (coef, mu, ok); ok
    is False for rows not taken, which are the rows of another drop
    pattern, rows whose recursion divides by zero or leaves a kept
    level with a zero mean (a maximum on the boundary), and every row
    when the layout is not of that form.
    """
    m, I, J = len(Y), design.n_ay, design.n_dy
    coef = np.full((m, design.p), np.nan)
    mu = np.full(Y.shape, np.nan)
    ok = np.zeros(m, dtype=bool)
    reach = np.zeros((J, I), dtype=np.int64)  # development year first: sums over accident years run last
    np.add.at(reach, (design.dy_idx, design.ay_idx), 1)
    length = reach.sum(axis=0)
    if not np.array_equal(reach, np.arange(J)[:, None] < length):
        return coef, mu, ok
    grid = np.zeros((m, J, I))
    grid[:, design.dy_idx, design.ay_idx] = Y if mask is None else Y * mask
    cum = np.cumsum(grid, axis=1)
    row_tot = cum[:, -1]
    col_tot = np.sum(grid, axis=-1)
    seen = np.sum(cum * reach, axis=-1)  # sum C[i, j] over the years observed at j
    before = np.sum(cum[:, :-1] * reach[1:], axis=-1)  # sum C[i, j - 1] over the same years
    with np.errstate(divide="ignore", invalid="ignore"):
        # cumulative share of the ultimate reached by the end of each development year
        share = np.ones((m, J))
        for j in range(J - 1, 0, -1):
            share[:, j - 1] = share[:, j] * before[:, j - 1] / seen[:, j]
        log_u = np.log(row_tot / share[:, length - 1])
        log_p = np.log(share * col_tot / seen)
        ay_keep, dy_keep = row_tot > 0, col_tot > 0
        rows = np.arange(m)
        base_u, base_p = log_u[rows, np.argmax(ay_keep, axis=1)], log_p[rows, np.argmax(dy_keep, axis=1)]
        a = np.where(ay_keep, log_u - base_u[:, None], 0.0)
        b = np.where(dy_keep, log_p - base_p[:, None], 0.0)
        full = np.hstack(((base_u + base_p)[:, None], a[:, 1:], b[:, 1:]))
    want_mask, want_pin = drop_masks(design, ay_keep, dy_keep)
    ok = (
        np.all(np.isfinite(full), axis=1)
        & np.all(want_mask if mask is None else want_mask == mask, axis=1)
        & ~np.any(want_pin if pin is None else want_pin != pin, axis=1)
    )
    coef[ok] = full[ok]
    mu[ok] = np.exp(np.clip(_rows_dot(design.X, coef[ok]), -_ETA_BOUND, _ETA_BOUND))
    return coef, mu, ok


def _poisson_batch(
    Y: np.ndarray,
    design: Design,
    start: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
    pin: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Poisson fit of every row of ``Y``, as :func:`_irls_batch` returns it.

    Rows the closed form of :func:`_chain_ladder_batch` takes get it;
    the rest get what :func:`_irls_batch` gives them, from ``start``.
    """
    coef, mu, ok = _chain_ladder_batch(Y, design, mask, pin)
    rest = np.nonzero(~ok)[0]
    if rest.size:
        start = None if start is None else np.asarray(start, dtype=float)
        coef[rest], mu[rest], ok[rest] = _irls_batch(
            Y[rest], design.X,
            start=start if start is None or start.ndim == 1 else start[rest],
            mask=None if mask is None else mask[rest],
            pin=None if pin is None else pin[rest],
        )
    return coef, mu, ok


@dataclass(frozen=True)
class ModelFit:
    """Fitted two-way count GLM.

    Effects are stored in both parameterisations. ``intercept``,
    ``ay_effects`` (accident years 2..I) and ``dy_effects``
    (development years 1..J-1) are the treatment contrasts;
    ``simplex_alpha`` and ``simplex_beta`` satisfy
    sum_j exp(simplex_beta[j]) = 1 with exp(simplex_alpha[i]) the
    expected ultimate for accident year i.
    """

    family: Family
    n_ay: int
    n_dy: int
    ay: np.ndarray
    dy: np.ndarray
    y: np.ndarray
    intercept: float
    ay_effects: np.ndarray
    dy_effects: np.ndarray
    simplex_alpha: np.ndarray
    simplex_beta: np.ndarray
    dev_weights: np.ndarray
    fitted_mu: np.ndarray
    loglik: float
    deviance: float
    deviance_path: Tuple[float, ...]
    phi: Optional[float]
    n_obs: int
    n_params: int
    converged: bool
    n_iter: int
    condition_number: float

    def mu_at(self, ay: int, dy: int) -> float:
        """Fitted mean for any cell of the layout, observed or future."""
        if not (1 <= ay <= self.n_ay and 0 <= dy < self.n_dy):
            raise KeyError(f"cell ({ay}, {dy}) outside the fitted layout")
        return float(np.exp(self.simplex_alpha[ay - 1] + self.simplex_beta[dy]))

    def coefficients(self) -> np.ndarray:
        return np.concatenate(([self.intercept], self.ay_effects, self.dy_effects))


def _simplex_from_contrasts(
    intercept: float, ay_effects: np.ndarray, dy_effects: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    full_beta = np.concatenate(([0.0], dy_effects))
    log_s = float(np.log(np.sum(np.exp(full_beta))))
    alpha = intercept + np.concatenate(([0.0], ay_effects)) + log_s
    beta = full_beta - log_s
    return alpha, beta, np.exp(beta)


def to_simplex(fit: ModelFit) -> ModelFit:
    """Return a fit whose simplex fields are (re)derived from the contrasts.

    ``fit`` already carries the simplex parameterisation; this op exists
    so the conversion is available as an explicit, testable step.
    """
    alpha, beta, weights = _simplex_from_contrasts(fit.intercept, fit.ay_effects, fit.dy_effects)
    return ModelFit(
        **{
            **fit.__dict__,
            "simplex_alpha": alpha,
            "simplex_beta": beta,
            "dev_weights": weights,
        }
    )


def _check_levels(y: np.ndarray, design: Design) -> None:
    for name, idx, size in (
        ("accident year", design.ay_idx, design.n_ay),
        ("development year", design.dy_idx, design.n_dy),
    ):
        present = np.bincount(idx, minlength=size)
        if np.any(present == 0):
            lvl = int(np.argmin(present != 0))
            raise RankDeficientError(f"{name} level {lvl} has no observations")
        totals = np.bincount(idx, weights=y, minlength=size)
        if np.any(totals == 0):
            lvl = int(np.argmax(totals == 0))
            raise SeparationError(
                f"{name} level {lvl} has all-zero counts; its coefficient diverges"
            )


def _prepare(data: Sequence) -> Tuple[np.ndarray, Design]:
    """Counts and design of long-format records, with :func:`fit`'s input checks."""
    ay = np.array([r.ay for r in data], dtype=np.int64)
    dy = np.array([r.dy for r in data], dtype=np.int64)
    y = np.array([r.count for r in data], dtype=float)
    if np.any(y < 0):
        raise ValueError("counts must be nonnegative")
    design = build_design(ay, dy)
    if design.n < design.p:
        raise RankDeficientError(
            f"{design.n} observations cannot identify {design.p} parameters"
        )
    _check_levels(y, design)
    return y, design


def fit(data: Sequence, family: Family) -> ModelFit:
    """Fit the two-way log-link count model by Newton steps with the observed information.

    The fit is :func:`_irls` from its cold start. For the Poisson and
    quasi-Poisson these are the Fisher-scoring steps, since the two
    informations coincide under the log link; for the negative binomial
    the observed information also converges fast on near-separated
    triangles, where Fisher scoring converges linearly.

    Args:
        data: long-format records with ``ay`` (1-based), ``dy``
            (0-based) and ``count`` fields, for example
            ``triangle.to_long(t)``.
        family: Poisson, quasi-Poisson, or fixed-kappa negative binomial.

    Raises:
        SeparationError: a factor level has all-zero counts.
        RankDeficientError: a factor level is absent or there are
            fewer observations than parameters.
        NotConvergedError: the fit stopped unconverged, as
            :func:`_irls` describes.
    """
    y, design = _prepare(data)

    irls_family = Family.poisson() if family.tag == "quasipoisson" else family
    coef, mu, dev, dev_path, converged, n_iter = _irls(y, design, irls_family)
    if not converged:
        raise NotConvergedError(f"IRLS stopped unconverged after {n_iter} iterations")

    w = irls_family.working_weight(mu)
    info = (design.X * w[:, None]).T @ design.X
    condition = float(np.linalg.cond(info))
    if condition > _CONDITION_WARN:
        warnings.warn(
            f"weighted information condition number {condition:.3g} exceeds {_CONDITION_WARN:.0e}",
            ConditioningWarning,
            stacklevel=2,
        )

    intercept = float(coef[0])
    ay_effects = coef[1 : design.n_ay]
    dy_effects = coef[design.n_ay :]
    alpha, beta, weights = _simplex_from_contrasts(intercept, ay_effects, dy_effects)

    phi = None
    if family.tag == "negbin":
        ll = nb_loglik(y, mu, family.kappa)
    else:
        ll = poisson_loglik(y, mu)
    fitted = ModelFit(
        family=family,
        n_ay=design.n_ay,
        n_dy=design.n_dy,
        ay=design.ay_idx + 1,
        dy=design.dy_idx,
        y=y,
        intercept=intercept,
        ay_effects=ay_effects,
        dy_effects=dy_effects,
        simplex_alpha=alpha,
        simplex_beta=beta,
        dev_weights=weights,
        fitted_mu=mu,
        loglik=ll,
        deviance=dev,
        deviance_path=tuple(dev_path),
        phi=phi,
        n_obs=design.n,
        n_params=design.p,
        converged=converged,
        n_iter=n_iter,
        condition_number=condition,
    )
    if family.tag == "quasipoisson":
        fitted = ModelFit(**{**fitted.__dict__, "phi": pearson_dispersion(fitted)})
    return fitted


def pearson_dispersion(fit: ModelFit) -> float:
    """Pearson dispersion phi = sum((y - mu)^2 / mu) / (n - p).

    Only defined for Poisson-family fits. A saturated fit with all-zero
    residuals reports phi = 0 even when n == p.
    """
    if fit.family.tag == "negbin":
        raise ValueError("Pearson dispersion applies to Poisson-family fits")
    ss = float(pearson_statistic(fit.y, fit.fitted_mu))
    if ss == 0.0:
        return 0.0
    dof = fit.n_obs - fit.n_params
    if dof <= 0:
        raise ValueError("Pearson dispersion undefined: no residual degrees of freedom")
    return ss / dof


def pearson_statistic(y: np.ndarray, mu: np.ndarray, mask: Optional[np.ndarray] = None):
    """Pearson statistic sum((y - mu)^2 / mu) over the last axis.

    ``y`` and ``mu`` are one triangle's cells or matrices with one
    triangle per row; ``mask`` marks the cells that count. Divided by
    the residual degrees of freedom this is the quasi-Poisson phi; each
    caller decides what a zero statistic or no degrees of freedom means.
    """
    terms = (y - mu) ** 2 / mu
    if mask is not None:
        terms = terms * mask
    return np.sum(terms, axis=-1)


def score(fit: ModelFit) -> np.ndarray:
    """Analytic score vector of the log-likelihood at the fitted coefficients."""
    design = build_design(fit.ay, fit.dy, fit.n_ay, fit.n_dy)
    mu = fit.fitted_mu
    if fit.family.tag == "negbin":
        k = fit.family.kappa
        resid = k * (fit.y - mu) / (k + mu)
    else:
        resid = fit.y - mu
    return design.X.T @ resid
