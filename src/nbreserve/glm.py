"""Two-way cross-classified count GLM with a log link.

The model is log mu[i, j] = alpha_i + beta_j over accident-year and
development-year factors, fitted under Poisson, quasi-Poisson, or
fixed-dispersion negative binomial families. The negative binomial uses
the mean-dispersion parameterisation E[N] = mu, Var[N] = mu + mu^2 / kappa,
so kappa -> infinity recovers the Poisson.

Every fit at fixed kappa is :func:`_irls`: a Newton step with the
observed information (:func:`_newton_terms`), halved within the
deviance's rounding slack, which stops on one rule: when its Newton
decrement is at rounding level, on a scale set by its total working
weight. The joint dispersion fit of :mod:`nbreserve.dispersion` takes
the same coefficient step for a batch of rows (:func:`_newton_step`),
solved by two-way elimination (:class:`_NormalEquations`): the
information's accident-year block is diagonal, so eliminating it leaves
a (J - 1)-square Schur system in the development-year effects, where
:func:`_irls` solves the dense p-square system. A row that drops levels
is told only which cells it keeps; the elimination holds the
coefficients of the levels left without weight.
Under the log link the Poisson's observed and expected information
coincide, so its step is the Fisher-scoring step; the Poisson is the
kappa -> infinity end of the same step. A batch's Poisson fit is the
chain-ladder in closed form (:func:`_chain_ladder_batch`), which takes
exactly the rows whose maximum exists and decides, for every fit, which
levels a row keeps; for one row of a user's counts :func:`_poisson_fit`
raises :class:`SeparationError` where a level is dropped or no maximum exists.

Fits are computed under treatment contrasts (first accident year and
development year 0 as baselines) and re-expressed on the simplex scale,
where the development effects exponentiate to weights summing to one.

The other modules share its layout: records to counts and a design
(:func:`_counts_and_design`, of a run-off triangle's cells;
:func:`_prepare` adds the checks of the counts, :func:`_check_counts`),
the coefficient order (:func:`build_design`, read back by
:func:`_split_coef` and :func:`_effects_from_coef`), and the Pearson
statistic behind every quasi-Poisson phi (:func:`pearson_statistic`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NoResidualDofError, NotConvergedError, SeparationError
from .triangle import _MAX_COUNT, _check_layout, _check_year_totals, _coerce_count

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
        _check_kappa(kappa)
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
        return float(2.0 * _unit_deviance(y, mu, self.kappa if self.tag == "negbin" else None).sum())


def _check_kappa(kappa: float) -> None:
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}; the limit is Family.poisson()")


def _unit_deviance(y: np.ndarray, mu: np.ndarray, kappa, ky: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-cell deviance halves; ``kappa`` None is Poisson, else negative binomial.

    ``kappa`` may be a column of per-row values broadcasting over rows of
    ``y``; ``ky`` is y + kappa when the caller has it.
    """
    if kappa is None:
        return _xlogy(y, y / mu) - (y - mu)
    if ky is None:
        ky = y + kappa
    return _xlogy(y, y / mu) - ky * np.log(ky / (mu + kappa))


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x log y elementwise, zero where x is zero, with no warning where y is zero there too."""
    return x * np.log(np.where(x == 0.0, 1.0, y))


def _lgamma(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) for an array of x > 0, elementwise by ``math.lgamma``."""
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)


def poisson_loglik(counts, mu) -> float:
    """Poisson log-likelihood of ``counts`` at cell means ``mu``."""
    y = _as_counts(counts)
    return _poisson_loglik(y, np.asarray(mu, dtype=float), _lgamma(y + 1.0))


def _poisson_loglik(y: np.ndarray, mu: np.ndarray, log_factorials: np.ndarray) -> float:
    """:func:`poisson_loglik` of float arrays, given each cell's log y!."""
    return float((_xlogy(y, mu) - mu - log_factorials).sum())


def nb_loglik(counts, mu, kappa: float) -> float:
    """Negative binomial log-likelihood in the mean-dispersion form.

    Uses log1p(mu / kappa) so the Poisson limit is reached cleanly as
    kappa grows toward the search cap. There log Gamma(y + kappa) and
    log Gamma(kappa) are of size kappa log kappa and cancel to a term of
    size y, losing about 1e-6 at kappa = 1e8; from ``_KAPPA_SERIES`` on
    their difference is therefore taken from Stirling's series, whose
    every term has the size of y.
    """
    _check_kappa(kappa)
    y = _as_counts(counts)
    return _nb_loglik(y, np.asarray(mu, dtype=float), kappa, _lgamma(y + 1.0))


def _nb_loglik(y: np.ndarray, mu: np.ndarray, kappa: float, log_factorials: np.ndarray) -> float:
    """:func:`nb_loglik` of float arrays, given each cell's log y! (a caller refitting the same counts keeps them)."""
    ky = y + kappa
    # log Gamma(y + kappa) - log Gamma(kappa) - y log kappa
    if kappa < _KAPPA_SERIES:
        lgamma_ratio = _lgamma(ky) - math.lgamma(kappa) - y * math.log(kappa)
    else:
        lgamma_ratio = (
            (ky - 0.5) * np.log1p(y / kappa) - y + _stirling_remainder(ky) - _stirling_remainder(kappa)
        )
    return float((lgamma_ratio - log_factorials - ky * np.log1p(mu / kappa) + _xlogy(y, mu)).sum())


def _stirling_remainder(x):
    """log Gamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2) for x >= ``_KAPPA_SERIES``.

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
    # the intercept, then one indicator per accident year from 2 and development year from 1
    X = np.concatenate(
        (np.ones((len(ay_idx), 1)), ay_idx[:, None] == np.arange(1, n_ay), dy_idx[:, None] == np.arange(1, n_dy)),
        axis=1, dtype=float,
    )
    return Design(ay_idx=ay_idx, dy_idx=dy_idx, n_ay=n_ay, n_dy=n_dy, X=X)


def _split_coef(coef: np.ndarray, n_ay: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intercept (a length-1 axis), accident-year and development-year effects of coefficient vectors (last axis)."""
    return coef[..., :1], coef[..., 1:n_ay], coef[..., n_ay:]


def _effects_from_coef(coef: np.ndarray, n_ay: int) -> Tuple[np.ndarray, np.ndarray]:
    """Log-scale row and column effects of coefficient vectors (last axis): log mu[i, j] = row[i] + col[j]."""
    intercept, ay_effects, dy_effects = _split_coef(coef, n_ay)
    zero = np.zeros_like(intercept)
    return intercept + np.concatenate((zero, ay_effects), axis=-1), np.concatenate((zero, dy_effects), axis=-1)


def _newton_terms(y: np.ndarray, mu: np.ndarray, kappa, ky: Optional[np.ndarray] = None):
    """Working weights and response of the coefficient Newton step at fixed kappa.

    The weights mu kappa (kappa + y) / (kappa + mu)^2 are each cell's
    observed information, positive for every count; the response z is
    the cell's score kappa (y - mu) / (kappa + mu) per unit of it, so the
    step's information is X^T W X and its score X^T W z: :func:`_irls`
    solves that system as it stands, :func:`_newton_step` by eliminating
    the accident-year effects (:class:`_NormalEquations`). ``kappa`` is
    a scalar, a column of per-row values, or None for the Poisson, whose
    weights mu and response (y - mu) / mu are the limit as kappa grows;
    under the log link they are also its Fisher-scoring weights and
    response. ``ky`` is y + kappa when the caller has it.
    """
    if kappa is None:
        return mu, (y - mu) / mu
    k_mu = kappa + mu
    if ky is None:
        ky = y + kappa
    return mu / k_mu * (kappa / k_mu) * ky, (y - mu) / mu * (k_mu / ky)


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
    slack = _DEV_SLACK * (y if kappa is None else y + kappa).sum()
    if start is None:
        coef, eta, dev = np.full(design.p, np.nan), np.log(y + 0.5), np.inf
        mu = np.exp(eta.clip(-_ETA_BOUND, _ETA_BOUND))
    else:
        coef = np.asarray(start, dtype=float)
        mu = np.exp((X @ coef).clip(-_ETA_BOUND, _ETA_BOUND))
        dev = family.deviance(y, mu)
    dev_path: List[float] = []
    converged = False
    n_iter = 0

    for n_iter in range(1, _IRLS_MAX_ITER + 1):
        whole = n_iter == 1 and start is None
        w, z = _newton_terms(y, mu, kappa)
        Xw = X * w[:, None]
        g = X.T @ (w * (eta + z)) if whole else Xw.T @ z
        delta = _solve_rows(Xw.T @ X, g)
        if np.isnan(delta).any():  # singular
            break
        cand = delta if whole else coef + delta
        limit = dev + slack
        for _ in range(30):
            eta = (X @ cand).clip(-_ETA_BOUND, _ETA_BOUND)
            mu_c = np.exp(eta)
            dev_c = family.deviance(y, mu_c)
            if math.isfinite(dev_c) and dev_c <= limit:
                break
            cand = 0.5 * (cand + coef)
        else:
            break
        coef, mu, dev = cand, mu_c, dev_c
        dev_path.append(dev)
        if (np.abs(eta) >= _ETA_BOUND).any():
            break
        converged = not whole and abs(g @ delta) <= max(_DECREMENT_TOL, _DECREMENT_PER_WEIGHT * w.sum())
        if converged:
            break

    return coef, mu, dev, dev_path, converged, n_iter


def _kept(a: np.ndarray, mask: Optional[np.ndarray], rows) -> np.ndarray:
    """``a``, per-cell values of the batch rows ``rows``, zeroed outside their ``mask`` cells; ``a`` without a mask."""
    return a if mask is None else a * mask[rows]


def _rows_dot(X: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Linear predictor X @ coef[r] for each row r of ``coef``.

    A stacked matmul computes each row on its own, so a row's result
    does not depend on which other rows share the batch.
    """
    return (X @ coef[:, :, None])[:, :, 0]


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A X = B for one system or a stack of them, with NaN for X where A is singular.

    It calls the LAPACK kernel (``gesv``) behind ``np.linalg.solve``, so
    X is the same bit for bit, without that function's input checks and
    its conversion of a singular system into ``LinAlgError``; on the
    systems solved here, of 5 to 25 unknowns, those cost several times
    the solve. The kernel flags a singular A as an invalid operation,
    which the caller silences (``np.errstate(invalid="ignore")``).
    """
    return _umath_linalg.solve(A, B, signature="dd->d")


def _solve_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each system A[r] x = b[r] by :func:`_solve`; rows with a singular A give NaN, without a warning."""
    with np.errstate(invalid="ignore"):
        return _solve(A, b[..., None])[..., 0]


class _NormalEquations:
    """The Newton system X^T W X delta = X^T W z of one design for a batch of rows, by two-way elimination.

    In the two-way coefficients theta = (alpha_1..alpha_I,
    beta_1..beta_{J-1}), log mu[i, j] = alpha_i + beta_j, the
    information has a diagonal accident-year block A_i = sum_j w_ij, a
    diagonal development-year block B_j = sum_i w_ij and a cross block,
    the I x J grid C of the weights, zero on unobserved cells.
    Eliminating alpha leaves the (J - 1)-square Schur system
    S d_beta = g_beta - C^T (g_alpha / A), S = diag(B) - C^T diag(1 / A) C,
    and d_alpha = (g_alpha - C d_beta) / A; det X^T W X = prod(A) det S,
    so a row's system is singular exactly when its S is. The step maps
    back to the treatment contrasts: the intercept's is d_alpha at the
    first kept accident year r0, accident year i's d_alpha_i - d_alpha_r0,
    and the development years' d_beta. Its decrement g . delta is the
    same in either form.

    ``mask`` (m, n) marks the cells each row of the batch keeps, None
    when every row keeps every cell; the caller zeroes the weights
    outside it. This class alone decides which coefficients a row holds
    at zero, from the weight sums it forms: an accident year with
    A_i = 0 is left out of the elimination (1 / A_i taken as 0) and its
    contrast is zero; a development year with B_j = 0, whose row and
    column of S are zero, gets the equation x = 0; and when development
    year 0 has no weight, the first development year with weight takes
    its place as the baseline and is held the same way.
    """

    def __init__(self, design: Design, m: int, mask: Optional[np.ndarray] = None):
        I, J = design.n_ay, design.n_dy
        self.X, self.mask, self.I, self.J = design.X, mask, I, J
        # sums over each cell's accident year, then its development year from 1 on (X's columns)
        self.sums = np.concatenate((design.ay_idx[:, None] == np.arange(I), design.X[:, I:]), axis=1)
        self.terms = np.empty((m, 2, design.n))
        # the weight grid C, with one more column for g_alpha; unobserved cells stay zero
        self.grid = np.zeros((m, I, J + 1))
        self.cell = design.ay_idx * (J + 1) + design.dy_idx
        self.diag = slice(0, (J - 1) * (J + 1), J + 1)  # the S block's diagonal in a flattened (J, J) matrix

    def solve(self, w: np.ndarray, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's step delta, NaN where its system is singular, and its decrement g . delta, g = X^T W z."""
        m, I, J = len(w), self.I, self.J
        terms = self.terms[:m]
        terms[:, 0] = w
        np.multiply(w, z, out=terms[:, 1])
        sums = terms @ self.sums
        A, B, g, g_beta = sums[:, 0, :I], sums[:, 0, I:], sums[:, 1], sums[:, 1, I:]
        grid = self.grid[:m]
        grid.reshape(m, -1)[:, self.cell] = w
        grid[:, :, J] = g[:, :I]
        if self.mask is None:
            neg_inv = -1.0 / A
        else:
            neg_inv = np.divide(-1.0, A, out=np.zeros_like(A), where=A > 0.0)
        # [C | g_alpha] without development year 0, whose beta is not a coefficient
        C = grid[:, :, 1:]
        # -C^T diag(1 / A) [C | g_alpha], then diag(B) added to its S block
        schur = (C * neg_inv[:, :, None]).transpose(0, 2, 1) @ C
        schur.reshape(m, -1)[:, self.diag] += B
        S, rhs = schur[:, :-1, :-1], g_beta + schur[:, :-1, -1]
        if self.mask is not None:
            rows = np.arange(m)
            # the development years with no weight, and the first with weight where development year 0 has none
            dy_weighted = B > 0.0
            held = ~dy_weighted
            held[rows, np.argmax(dy_weighted, axis=1)] |= ~grid[:, :, 0].any(axis=1)
            free = ~held
            S = S * (free[:, :, None] & free[:, None, :])
            S.reshape(m, -1)[:, ::J] += held  # on S's diagonal
            rhs = rhs * free
        # (d_alpha, d_beta, -1): [C | g_alpha] (d_beta, -1) = C d_beta - g_alpha
        step = np.empty((m, I + J))
        step[:, I:-1] = _solve_rows(S, rhs)
        step[:, -1] = -1.0
        np.multiply((C @ step[:, I:, None])[:, :, 0], neg_inv, out=step[:, :I])
        delta = step[:, :-1]
        decrement = (g * delta).sum(axis=1)
        if self.mask is None:
            delta[:, 1:I] -= delta[:, :1]
        else:
            ay_weighted = A > 0.0
            base = delta[rows, np.argmax(ay_weighted, axis=1)]
            delta[:, 0] = base
            delta[:, 1:I] = np.where(ay_weighted[:, 1:], delta[:, 1:I] - base[:, None], 0.0)
        return delta, decrement


def _newton_step(
    normal: _NormalEquations, live: np.ndarray, y: np.ndarray, coef: np.ndarray, mu: np.ndarray,
    k: np.ndarray, ky: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The step of :func:`_irls` for the rows ``live`` of a batch, at fixed kappa.

    Row r's weights and response come from :func:`_newton_terms` at its
    counts (``y``, the rows ``live`` of the batch's counts), means mu[r]
    and kappa (``k``, a column over ``live``); ``ky`` is y + kappa, which
    the weights, every deviance and the slack share. ``normal`` solves
    the Newton system by two-way elimination: a (J - 1)-square Schur
    system in the development-year effects, then the accident-year
    effects by back-substitution. The step is halved until the row's
    deviance does not rise by more than ``_DEV_SLACK`` times its sum of
    y + kappa. Every row's whole step is tried at once, and only the
    rows that do not take it enter the halving loop, which near the
    optimum is empty. Cells outside ``normal``'s mask get zero weight
    and add nothing to either, so ``normal`` holds the coefficients of
    the levels they leave without weight. ``coef`` and ``mu`` are
    updated in place for the rows that take a step. The caller silences the
    floating-point warnings of singular and diverging rows, which fail.

    Returns (decrement, tol, failed, mu_live) per row of ``live``: the
    Newton decrement g^T delta, the decrement at or below which the row
    has converged, max(``_DECREMENT_TOL``, ``_DECREMENT_PER_WEIGHT``
    times its total working weight), whether the system was singular, no
    halving kept the deviance down or a kept mean reached the clip of
    the linear predictor, and the rows' means after the step.
    """
    X, mask = normal.X, normal.mask
    old, mu_l = coef[live], mu[live]

    def deviance(rows, mu_r):
        return 2.0 * _kept(_unit_deviance(y[rows], mu_r, k[rows], ky[rows]), mask, live[rows]).sum(axis=1)

    w, z = _newton_terms(y, mu_l, k, ky)
    w = _kept(w, mask, live)
    tol = np.maximum(_DECREMENT_TOL, _DECREMENT_PER_WEIGHT * w.sum(axis=1))
    delta, decrement = normal.solve(w, z)
    failed = np.isnan(delta).any(axis=1)
    cand = old + delta
    every = slice(None)
    limit = deviance(every, mu_l) + _DEV_SLACK * _kept(ky, mask, live).sum(axis=1)
    eta = _rows_dot(X, cand).clip(-_ETA_BOUND, _ETA_BOUND)
    mu_c = np.exp(eta)
    d = deviance(every, mu_c)
    step = ~failed & np.isfinite(d) & (d <= limit)
    # step halving: each other row takes the first of (cand + old) / 2,
    # ... within 29 more halvings that keeps its deviance within the slack
    pend = np.nonzero(~(step | failed))[0]
    for _ in range(29):
        if pend.size == 0:
            break
        cand[pend] = 0.5 * (cand[pend] + old[pend])
        e = _rows_dot(X, cand[pend]).clip(-_ETA_BOUND, _ETA_BOUND)
        m = np.exp(e)
        d = deviance(pend, m)
        good = np.isfinite(d) & (d <= limit[pend])
        took = pend[good]
        step[took], eta[took], mu_c[took] = True, e[good], m[good]
        pend = pend[~good]
    # within the slack a Newton step near the optimum is always taken; a
    # row that takes none, or whose kept means reach the clip, has a
    # likelihood rising without bound
    failed[pend] = True
    mu_c = np.where(step[:, None], mu_c, mu_l)  # the means after the step
    coef[live], mu[live] = np.where(step[:, None], cand, old), mu_c
    failed |= step & _kept(np.abs(eta) >= _ETA_BOUND, mask, live).any(axis=1)
    return decrement, tol, failed, mu_c


def _chain_ladder_batch(Y: np.ndarray, design: Design) -> Tuple[np.ndarray, ...]:
    """The Poisson fit of every row of ``Y`` on its kept levels in closed form, by the chain-ladder.

    Every caller's layout, a run-off triangle or the design of some of
    its levels, observes each accident year on a prefix of the
    development years. There the Poisson maximum-likelihood means
    are the chain-ladder's (Renshaw & Verrall 1998): with C the cumulated counts,
    the factor f_j = sum C[i, j] / sum C[i, j - 1] over the years
    observed at j gives the share of development year j of the
    ultimate, and each year's observed total gives its ultimate. A
    level with a zero total adds nothing to those sums, and a
    development year whose sum C[i, j] is zero adds no development, so
    the same recursion fits the kept levels of any row.

    A row's coefficients are the kept levels' parameters with the first
    kept level of each factor as the baseline, and each dropped level's
    coefficient zero: the joint kernel (:class:`_NormalEquations`) holds
    the same ones. Its means are exp(X coef) on every cell. Returns
    (coef, mu, ok, ay_keep, dy_keep): ok is False for rows not taken,
    those that leave a kept cell with a zero mean (a maximum on the
    boundary, or none); ay_keep (m, n_ay) and dy_keep (m, n_dy) mark
    each row's kept levels, those with a positive total, which no other
    code decides. A row is taken
    exactly when some strictly positive table on its kept cells has its
    margins, which is when its maximum exists (Haberman 1974).
    """
    m, I, J = len(Y), design.n_ay, design.n_dy
    # each observed cell, development year first so that sums over
    # accident years run last, and each accident year's count of cells
    reach = np.bincount(design.dy_idx * I + design.ay_idx, minlength=J * I).reshape(J, I)
    length = reach.sum(axis=0)
    grid = np.zeros((m, J, I))
    grid[:, design.dy_idx, design.ay_idx] = Y
    cum = grid.cumsum(axis=1)
    row_tot = cum[:, -1]
    col_tot = grid.sum(axis=-1)
    seen = (cum * reach).sum(axis=-1)  # sum C[i, j] over the years observed at j
    before = (cum[:, :-1] * reach[1:]).sum(axis=-1)  # sum C[i, j - 1] over the same years
    # a development year with seen[j] zero adds no development: its factor is 1 / 1
    grows = seen[:, 1:] > 0
    num, den = np.where(grows, before, 1.0).T, np.where(grows, seen[:, 1:], 1.0).T
    with np.errstate(divide="ignore", invalid="ignore"):
        # cumulative share of the ultimate reached by the end of each development year
        share = np.ones((J, m))
        for j in range(J - 1, 0, -1):
            share[j - 1] = share[j] * num[j - 1] / den[j - 1]
        share = share.T
        log_u = np.log(row_tot / share[:, length - 1])
        log_p = np.log(share * col_tot / seen)
        ay_keep, dy_keep = row_tot > 0, col_tot > 0
        rows = np.arange(m)
        base_u, base_p = log_u[rows, ay_keep.argmax(axis=1)], log_p[rows, dy_keep.argmax(axis=1)]
        a = np.where(ay_keep, log_u - base_u[:, None], 0.0)
        b = np.where(dy_keep, log_p - base_p[:, None], 0.0)
        full = np.concatenate(((base_u + base_p)[:, None], a[:, 1:], b[:, 1:]), axis=1)
    ok = np.isfinite(full).all(axis=1)
    # a row not taken gets NaN coefficients, hence NaN means
    coef = np.where(ok[:, None], full, np.nan)
    return coef, np.exp(_rows_dot(design.X, coef).clip(-_ETA_BOUND, _ETA_BOUND)), ok, ay_keep, dy_keep


def _poisson_fit(y: np.ndarray, design: Design) -> Tuple[np.ndarray, ...]:
    """:func:`_chain_ladder_batch` of one row; :class:`SeparationError` for a dropped level, else no finite maximum."""
    poisson = _chain_ladder_batch(y[None], design)
    for name, kept in zip(("accident year", "development year"), poisson[3:]):
        if not kept.all():
            raise SeparationError(f"{name} level {int(np.argmin(kept))} has all-zero counts; its coefficient diverges")
    if not poisson[2][0]:
        raise SeparationError(
            "the likelihood has no finite maximum: no strictly positive table on the observed cells has their "
            "accident- and development-year totals"
        )
    return poisson


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


def _simplex(coef: np.ndarray, n_ay: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(simplex_alpha, simplex_beta, dev_weights) of one coefficient vector."""
    row, col = _effects_from_coef(coef, n_ay)
    log_s = float(np.log(np.exp(col).sum()))
    beta = col - log_s
    return row + log_s, beta, np.exp(beta)


def to_simplex(fit: ModelFit) -> ModelFit:
    """Return a fit whose simplex fields are (re)derived from the contrasts.

    ``fit`` already carries the simplex parameterisation; this op exists
    so the conversion is available as an explicit, testable step.
    """
    alpha, beta, weights = _simplex(fit.coefficients(), fit.n_ay)
    return ModelFit(
        **{
            **fit.__dict__,
            "simplex_alpha": alpha,
            "simplex_beta": beta,
            "dev_weights": weights,
        }
    )


def _counts_and_design(data: Sequence) -> Tuple[np.ndarray, Design]:
    """Counts and design of long-format records, which must be a run-off triangle's cells (``_check_layout``).

    When numpy cannot read a count as a float (``'abc'``, ``10**400``), the
    first bad count in row-major order raises :func:`_coerce_count`'s error.
    """
    ay = np.array([r.ay for r in data], dtype=np.int64)
    dy = np.array([r.dy for r in data], dtype=np.int64)
    I = _check_layout(ay, dy)
    counts = [r.count for r in data]
    try:
        y = np.array(counts, dtype=float)
    except (TypeError, ValueError, OverflowError):
        y = np.empty(len(counts))
        for k in np.lexsort((dy, ay)).tolist():
            y[k] = _coerce_count(counts[k], f"({ay[k]}, {dy[k]})", False)
    return y, build_design(ay, dy, I, I)


def _prepare(data: Sequence) -> Tuple[np.ndarray, Design]:
    """:func:`_counts_and_design` with :func:`_check_counts`, naming a bad count as the records hold it."""
    y, design = _counts_and_design(data)
    _check_counts(y, design, data)
    return y, design


def _check_counts(y: np.ndarray, design: Design, records: Optional[Sequence] = None) -> None:
    """Check that each count is an integer in [0, 2**53), then each accident year's total (:func:`_check_year_totals`).

    The first bad count in row-major order raises the triangle constructors'
    error, naming its cell and its value as ``records`` hold it, else as a float.
    """
    bad = ~((y >= 0) & (y <= _MAX_COUNT) & (y == np.floor(y)))  # NaN fails every comparison
    if np.count_nonzero(bad):
        k = min(np.nonzero(bad)[0].tolist(), key=lambda k: (design.ay_idx[k], design.dy_idx[k]))
        value = float(y[k]) if records is None else records[k].count
        _coerce_count(value, f"({design.ay_idx[k] + 1}, {design.dy_idx[k]})", False)
    _check_year_totals(y, design.ay_idx)


class _JointFit(NamedTuple):
    """The joint fit of :mod:`nbreserve.dispersion` at its estimate ``kappa``, refitted there at the cap."""

    coef: np.ndarray
    mu: np.ndarray
    kappa: float
    at_boundary: bool
    loglik_nb: float  # at ``mu``: the profile's maximum
    loglik_poisson: float  # at the means of the Poisson fit the joint fit starts from
    log_factorials: np.ndarray  # each cell's log y!, which both log-likelihoods and the profile's refits take


# The last joint fit as (key, record), ``key`` being :func:`_data_key` of
# its data; nbreserve.dispersion's ``_joint_fit`` is its only writer.
_last_joint_fit: Tuple[tuple, Optional[_JointFit]] = ((), None)


def _data_key(y: np.ndarray, design: Design) -> tuple:
    """The counts and both factor indices as bytes: equal keys are the same data bit for bit."""
    return (y.tobytes(), design.ay_idx.tobytes(), design.dy_idx.tobytes())


def _remembered_joint(y: np.ndarray, design: Design, family: Family) -> Optional[_JointFit]:
    """The remembered joint fit when ``family`` is the negative binomial at its kappa on the same data."""
    key, joint = _last_joint_fit
    if joint is None or family.tag != "negbin" or joint.kappa != family.kappa or key != _data_key(y, design):
        return None
    return joint


def fit(data: Sequence, family: Family) -> ModelFit:
    """Fit the two-way log-link count model by Newton steps with the observed information.

    The fit is :func:`_irls` from its cold start, except for the
    negative binomial at the kappa of the last joint fit
    (:func:`nbreserve.dispersion.profile_kappa`'s estimate, which
    :func:`nbreserve.dispersion.overdispersion_test` and the base fit of
    :func:`nbreserve.predictive.bootstrap` share) on the same counts and
    levels, bit for bit: that fit starts from the joint fit's
    coefficients at that kappa and confirms them in one step; its
    log-means agree with a cold fit's to 1e-12, and its log-likelihood
    takes the joint fit's log y!. For the Poisson and
    quasi-Poisson the steps are the Fisher-scoring steps, since the two
    informations coincide under the log link; for the negative binomial
    the observed information also converges fast on near-separated
    triangles, where Fisher scoring converges linearly.

    A cold fit first runs the existence test of every other fit,
    :func:`_poisson_fit`: every family has a finite maximum on the same
    triangles.

    Args:
        data: long-format records with ``ay`` (1-based), ``dy``
            (0-based) and ``count`` fields, one for each observed cell
            of a run-off triangle, for example ``triangle.to_long(t)``.
        family: Poisson, quasi-Poisson, or fixed-kappa negative binomial.

    Raises:
        TriangleError: the records are not each cell of a triangle
            once (MissingCellError, RaggedRowsError or FutureCellError,
            naming the cell), or a count or an accident year's total is
            not an integer in [0, 2**53) (CountTooLargeError and others).
        SeparationError: a factor level has all-zero counts, or the
            likelihood has no finite maximum.
        NoResidualDofError: a quasi-Poisson fit of a 2 x 2 triangle.
        NotConvergedError: the fit stopped unconverged, as
            :func:`_irls` describes.
    """
    y, design = _prepare(data)

    irls_family = Family.poisson() if family.tag == "quasipoisson" else family
    joint = _remembered_joint(y, design, family)
    if joint is None:
        _poisson_fit(y, design)  # SeparationError where no finite maximum exists, for every family
    coef, mu, dev, dev_path, converged, n_iter = _irls(y, design, irls_family, None if joint is None else joint.coef)
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

    intercept, ay_effects, dy_effects = _split_coef(coef, design.n_ay)
    alpha, beta, weights = _simplex(coef, design.n_ay)

    phi = None
    log_factorials = _lgamma(y + 1.0) if joint is None else joint.log_factorials
    if family.tag == "negbin":
        ll = _nb_loglik(y, mu, family.kappa, log_factorials)
    else:
        ll = _poisson_loglik(y, mu, log_factorials)
    fitted = ModelFit(
        family=family,
        n_ay=design.n_ay,
        n_dy=design.n_dy,
        ay=design.ay_idx + 1,
        dy=design.dy_idx,
        y=y,
        intercept=float(intercept[0]),
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

    Only defined for Poisson-family fits with n > p.
    """
    if fit.family.tag == "negbin":
        raise ValueError("Pearson dispersion applies to Poisson-family fits")
    dof = fit.n_obs - fit.n_params
    if dof <= 0:
        raise NoResidualDofError(
            f"no residual degrees of freedom: {fit.n_obs} observed cells for {fit.n_params} parameters"
        )
    return float(pearson_statistic(fit.y, fit.fitted_mu)) / dof


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
