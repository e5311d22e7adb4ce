"""Dispersion estimation for the negative binomial count model.

The dispersion kappa is estimated by maximum likelihood: the joint fit
:func:`nb_mle` runs Newton iterations over the mean effects and log
kappa together, from the closed-form chain-ladder Poisson fit and the
Pearson moment estimate of kappa at its means (:func:`_start_kappa`),
and so maximises the profile
l_p(kappa) = l(alpha_hat(kappa), beta_hat(kappa), kappa) over log kappa
in [1e-3, 1e8]. The bootstrap engine refits its replicates with the
same kernel, :func:`_nb_mle_batch`; :func:`nb_mle` is its batch of
one, with the means refitted at the cap when the estimate is there
(:func:`_fit_at_estimate`). Confidence intervals invert the
likelihood-ratio statistic at the chi-square(1) 0.95 quantile. One
routine, :func:`_ci_endpoint`, finds each endpoint: Newton steps on
{coefficient score = 0, l = l_hat - 3.841 / 2} for the coefficients
and log kappa together (Venzon and Moolgavkar, 1988), started from the
quadratic profile, whose curvature is analytic
(:func:`_profile_curvature`), or at the cap from the profile's
large-kappa expansion, and kept inside a bracket that a refit of the
means at the bound, then at the bracket's midpoint, narrows when the
steps do not settle. Refits of the means at fixed kappa
(:func:`_refit_means`) serve the estimate at the cap, those bracket
points and the plotting grid. :func:`_joint_fit`
alone remembers the joint fit at its estimate, with both
log-likelihoods, which :func:`profile_kappa`, :func:`overdispersion_test`,
the bootstrap's base fit and :func:`nbreserve.glm.fit` at its kappa on
the same data read.

The maximum-likelihood kappa is biased high in small triangles because
every cell carries its own mean parameter; the default remedy is the
closed-form correction kappa * (n - p) / n, with a numerical maximiser
of the Cox-Reid adjusted profile likelihood available as an
alternative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import glm
from .errors import FlatProfileError, NoResidualDofError, NotConvergedError, SingularInformationError
from .glm import (
    _ETA_BOUND, _IRLS_MAX_ITER, _KAPPA_SERIES, Design, Family, _check_counts, _data_key, _irls, _JointFit, _kept,
    _newton_step, _NormalEquations, _lgamma, _nb_loglik, _poisson_fit, _poisson_loglik, _prepare, _solve,
)
from .triangle import _check_layout

KAPPA_MIN = 1e-3
KAPPA_CAP = 1e8
_BELOW_CAP = math.nextafter(KAPPA_CAP, 0.0)  # the largest kappa a joint fit starts from
_LOG_CAP = math.log(KAPPA_CAP)
_LOG_TINY = math.log(np.finfo(float).tiny)  # below it exp(theta) is subnormal or 0.0

# chi-square(1) quantile at 0.95, used to invert the profile LRT
CHI2_1_95 = 3.841458820694124

# log-spaced profile points `nbreserve diagnose` adds to the exported curve
_GRID_SIZE = 60

# log-spaced points on which maximize_adjusted_profile brackets its maximum
_ADJUSTED_GRID_SIZE = 40

# Newton steps after which an interval endpoint's run of steps counts as not settled
_ENDPOINT_STEPS = 20


def _nb_variance(mu, kappa: float):
    """The negative binomial variance mu + mu^2 / kappa; mu in the Poisson limit, kappa >= KAPPA_CAP or inf.

    Raises:
        ValueError: kappa is not positive, or is NaN.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    return mu if kappa >= KAPPA_CAP else mu + mu * mu / kappa


@dataclass(frozen=True)
class KappaEstimate:
    """Profile-likelihood estimate of the negative binomial dispersion."""

    kappa_mle: float
    kappa_adj: float
    ci95: Tuple[float, float]
    profile_curve: np.ndarray  # columns (kappa, profile loglik), sorted by kappa
    at_boundary: bool
    loglik: float
    n_obs: int
    n_params: int


@dataclass(frozen=True)
class SelectionReport:
    """Poisson vs negative binomial comparison on one data set."""

    statistic: float  # 2 * (l_NB - l_Poisson), clamped at zero
    p_value: float  # boundary-corrected: half a chi-square(1) tail
    kappa_mle: float
    loglik_poisson: float
    loglik_nb: float
    aic_poisson: float
    aic_nb: float
    bic_poisson: float
    bic_nb: float


def bias_correct(kappa_mle, n_obs: int, n_params: int):
    """Closed-form small-sample correction kappa * (n - p) / n.

    The correction removes the first-order bias from profiling out the
    p mean parameters; with p = 0 it is the identity. ``kappa_mle`` is
    one kappa or an array of them, corrected elementwise.

    Raises:
        NoResidualDofError: n_obs <= n_params, as in a 2 x 2 triangle.
    """
    if not np.all(np.greater(kappa_mle, 0)):
        raise ValueError(f"kappa_mle must be positive, got {kappa_mle}")
    if n_params < 0:
        raise ValueError(f"n_params must be nonnegative, got {n_params}")
    if n_obs <= n_params:
        raise NoResidualDofError(f"no residual degrees of freedom: {n_obs} observed cells for {n_params} parameters")
    return kappa_mle * (n_obs - n_params) / n_obs


class _ProfileCache:
    """Profile log-likelihood evaluator with warm-started Newton refits.

    Each call refits the means at one kappa by
    :func:`_refit_means`, starting from the previous call's
    coefficients (at first the ``joint`` fit's, by default the
    closed-form Poisson fit), and records (kappa, loglik); ``mu`` holds
    the last point's fitted means. Each cell's log y! is the joint fit's,
    or computed here. A point known without a refit, such as the joint
    fit's, may be appended to ``evals`` directly. Warm-started from a
    nearby kappa's fit a refit takes about three steps.

    Raises:
        NotConvergedError: a refit did not converge.
    """

    def __init__(self, y: np.ndarray, design: Design, joint: Optional[_JointFit] = None):
        if joint is None:
            self.warm, self.log_factorials = _poisson_fit(y, design)[0][0], _lgamma(y + 1.0)
        else:
            self.warm, self.log_factorials = joint.coef, joint.log_factorials
        self.y = y
        self.design = design
        self.mu: Optional[np.ndarray] = None
        self.evals: List[Tuple[float, float]] = []

    def __call__(self, kappa: float) -> float:
        self.warm, self.mu = _refit_means(self.y, self.design, kappa, self.warm)
        ll = _nb_loglik(self.y, self.mu, kappa, self.log_factorials)
        self.evals.append((kappa, ll))
        return ll


def _refit_means(y: np.ndarray, design: Design, kappa: float, start: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(coef, mu) of the means refitted at fixed ``kappa`` by :func:`nbreserve.glm._irls`, from ``start``.

    Raises:
        NotConvergedError: the refit did not converge.
    """
    coef, mu, _, _, converged, _ = _irls(y, design, Family.negbin(kappa), start=start)
    if not converged:
        raise NotConvergedError(f"profile refit at kappa={kappa:.4g} did not converge")
    return coef, mu


def _golden_max(f, lo: float, hi: float) -> Tuple[float, float]:
    """Golden-section maximisation of f on [lo, hi], until the bracket is at most 1e-7 wide."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-7:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _ci_endpoint(profile: _ProfileCache, theta_hat: float, target: float, bound: float, start) -> float:
    """Kappa between exp(theta_hat) and ``bound`` where the profile falls to ``target``, or ``bound`` if it stays above.

    Newton steps (Venzon & Moolgavkar 1988, Appl. Statist. 37:87-94) on
    {X^T s = 0, l(coef, theta) = target} for the coefficients and
    theta = log kappa together, from ``start`` (coefficients, theta); s
    is each cell's coefficient score kappa (y - mu) / (kappa + mu), so
    the solution lies on the profile. The Jacobian
    [[-X^T W X, c], [(X^T s)^T, kappa s_kappa]] is solved by eliminating
    its coefficient block. The first step that moves neither theta nor a
    coefficient by more than 1e-6 ends the solve, with an error of order
    1e-12 by Newton's quadratic convergence; the endpoint goes into
    ``profile.evals`` and its means into ``profile.mu``.

    The iterates stay in the bracket (theta_hat, log ``bound``]. A run
    of steps that is singular, leaves the bracket, does not settle in
    ``_ENDPOINT_STEPS`` steps, or starts past the cap or at or below
    ``_LOG_TINY`` (where a nearly flat profile's quadratic start can
    lie: past 709 exp(theta) overflows, and below -708 it is subnormal
    or 0.0), is followed by a refit of the means: first at ``bound``,
    from ``profile``'s warm start, which is the endpoint if the profile
    there is not below ``target``; then at the bracket's midpoint, which
    replaces the bracket end on its side of ``target``. The steps resume
    from each refit.

    Raises:
        NotConvergedError: a refit did not converge, or the bracket
            shrank to adjacent floats with no run of steps settled.
    """
    y, X, log_factorials = profile.y, profile.design.X, profile.log_factorials
    coef, theta = start
    inner, outer = theta_hat, math.log(bound)
    side = 1.0 if outer > inner else -1.0
    refit = None  # theta of the last refit of the means
    while True:
        # a diverging iterate's means may overflow here; its next theta
        # is then not finite, or outside the bracket, and the run ends
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for _ in range(_ENDPOINT_STEPS if _LOG_TINY < theta <= _LOG_CAP else 0):
                kappa = math.exp(theta)
                mu = np.exp((X @ coef).clip(-_ETA_BOUND, _ETA_BOUND))
                g, info, c = _tangent_terms(y, X, mu, kappa)
                uv = _solve(info, np.array((g, c)).T)
                if np.isnan(uv).any():  # singular
                    break
                u, v = uv.T
                slope = g @ v + kappa * float(_kappa_score(y, mu, kappa))
                d_theta = -(_nb_loglik(y, mu, kappa, log_factorials) - target + g @ u) / slope
                d_coef = u + v * d_theta
                theta += d_theta
                coef = coef + d_coef
                if not (side * (theta - inner) > 0.0 and side * (theta - outer) <= 0.0):
                    break
                if max(abs(d_theta), float(np.abs(d_coef).max())) <= 1e-6:
                    kappa = math.exp(theta)
                    profile.mu = np.exp((X @ coef).clip(-_ETA_BOUND, _ETA_BOUND))
                    profile.evals.append((kappa, _nb_loglik(y, profile.mu, kappa, log_factorials)))
                    return kappa
        if refit is None:
            refit, kappa = outer, bound
        else:
            refit = 0.5 * (inner + outer)
            if refit in (inner, outer):
                raise NotConvergedError(f"profile interval endpoint near kappa={kappa:.4g} did not settle")
            kappa = math.exp(refit)
        drop = profile(kappa) - target
        if kappa == bound and drop >= 0.0:
            return bound
        inner, outer = (inner, refit) if drop < 0.0 else (refit, outer)
        coef, theta = profile.warm, refit


def profile_kappa(data: Sequence, grid_size: int = 0) -> KappaEstimate:
    """Profile-likelihood dispersion estimate with 95% interval.

    The estimate, the means there and the profile's maximum are those
    of the joint fit (:func:`_joint_fit`), which an
    :func:`overdispersion_test` on the same data shares. Interior
    estimates whose analytic profile curvature
    (:func:`_profile_curvature`) is flat are rejected. Each interval
    endpoint is where the profile falls 3.841 / 2 below its maximum, or
    the end of the search range if the profile stays above that level,
    found by one bracketed Newton solve (:func:`_ci_endpoint`) from the
    quadratic profile's endpoint. A maximiser at the upper cap is
    reported with ``at_boundary=True`` and means the data are
    Poisson-compatible; its interval runs up to the cap, and only its
    lower endpoint is solved for, from the large-kappa expansion.

    ``profile_curve`` holds the estimate, the endpoints and any refits
    of the means on the way to them; ``grid_size`` > 0 adds that many
    log-spaced points over the search range, for plotting. They change
    neither the estimate nor the interval.

    Raises:
        SeparationError: the likelihood has no finite maximum.
        FlatProfileError: interior optimum with curvature below 1e-6 on
            the log-kappa scale, so kappa is not identified.
        NotConvergedError: the joint fit or a refit on the way to the
            interval did not converge, or an endpoint's bracket shrank
            to adjacent floats with no Newton step settled.
    """
    y, design = _prepare(data)
    joint = _joint_fit(y, design)
    coef, mu, kappa_hat, at_boundary, ll_hat, _, _ = joint
    profile = _ProfileCache(y, design, joint)
    profile.evals.append((kappa_hat, ll_hat))
    theta_hat = math.log(kappa_hat)
    target = ll_hat - 0.5 * CHI2_1_95
    if at_boundary:
        # near the cap l_p(kappa) ~ l_hat + S / (2 kappa), S = sum((y - mu)^2 - y),
        # which falls to the target at kappa = -S / 3.841: start there
        s = float(_boundary_sum(y, y - mu))
        theta = min(math.log(max(-s / CHI2_1_95, KAPPA_MIN)), math.nextafter(theta_hat, -math.inf))
        lower, upper = _ci_endpoint(profile, theta_hat, target, KAPPA_MIN, (coef, theta)), KAPPA_CAP
    else:
        curv, tangent = _profile_curvature(y, design.X, mu, kappa_hat)
        if curv > -1e-6:
            raise FlatProfileError(
                f"profile curvature {curv:.3g} at kappa={kappa_hat:.4g}; "
                "dispersion not identified"
            )
        # start from the quadratic profile's endpoints, moving the
        # coefficients along the profile's tangent (X^T W X)^-1 c
        half_width = math.sqrt(CHI2_1_95 / -curv)
        ends = []
        for bound, d in ((KAPPA_MIN, -half_width), (KAPPA_CAP, half_width)):
            profile.warm = coef  # where a refit at the bound starts
            ends.append(_ci_endpoint(profile, theta_hat, target, bound, (coef + tangent * d, theta_hat + d)))
        lower, upper = ends

    if grid_size:
        for kappa in np.geomspace(KAPPA_MIN, KAPPA_CAP, grid_size):
            try:
                profile(float(kappa))
            except NotConvergedError:
                pass  # a plotting point whose refit fails is left out
    seen = {}
    for kappa, ll in profile.evals:
        seen.setdefault(kappa, ll)
    curve = np.array(sorted(seen.items()))
    return KappaEstimate(
        kappa_mle=kappa_hat,
        kappa_adj=bias_correct(kappa_hat, design.n, design.p),
        ci95=(lower, upper),
        profile_curve=curve,
        at_boundary=at_boundary,
        loglik=ll_hat,
        n_obs=design.n,
        n_params=design.p,
    )


def _profile_curvature(y: np.ndarray, X: np.ndarray, mu: np.ndarray, kappa: float) -> Tuple[float, np.ndarray]:
    """Second derivative of the profile l_p in log kappa at a joint maximum (mu, kappa), and the tangent.

    Along the profile the coefficients follow kappa so that their score
    stays zero, by the tangent (X^T W X)^-1 c per unit of log kappa,
    which gives h + c^T (X^T W X)^-1 c: h = kappa s + kappa^2 s' is the
    log-kappa curvature at fixed means (s the kappa score), X^T W X the
    coefficients' observed information and
    c = X^T [kappa (y - mu) mu / (kappa + mu)^2] the log-kappa derivative
    of their score.
    """
    _, info, c = _tangent_terms(y, X, mu, kappa)
    tangent = np.linalg.solve(info, c)
    s, s_kappa = _kappa_score(y, mu, kappa, deriv=True)
    h = kappa * float(s) + kappa * kappa * float(s_kappa)
    return h + float(c @ tangent), tangent


def _tangent_terms(
    y: np.ndarray, X: np.ndarray, mu: np.ndarray, kappa: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coefficient score g = X^T s, their observed information X^T W X and c, the log-kappa derivative of g.

    s is each cell's score kappa (y - mu) / (kappa + mu) and W holds the
    weights of :func:`nbreserve.glm._newton_terms`; all three come from
    one y - mu and one kappa + mu.
    """
    r, k_mu = y - mu, kappa + mu
    w = mu / k_mu * (kappa / k_mu) * (kappa + y)
    return X.T @ (kappa * r / k_mu), (X * w[:, None]).T @ X, X.T @ (kappa * r * mu / k_mu**2)


def _kappa_score(y: np.ndarray, mu: np.ndarray, kappa, deriv: bool = False, terms=None):
    """d/d kappa of the NB log-likelihood at fixed means, and with ``deriv`` its own kappa derivative.

    ``y`` and ``mu`` are one triangle's cells with a scalar ``kappa``,
    or matrices whose rows are triangles with one kappa each. Returns
    the score, or (score, derivative) from one :func:`_polygamma` call.
    ``terms`` are the cells' (y - mu, kappa + mu, y + kappa) when the
    caller has them, as the joint fit does.

    The score is a sum of O(y / kappa) terms that cancel to
    -sum((y - mu)^2 - y) / (2 kappa^2). Summed from digamma values of
    size log kappa, it carries an absolute rounding error near 1e-13,
    which from kappa ~ 1e4 on moves the root by more than the joint
    fit's 1e-9 stop. From ``_KAPPA_SERIES`` on it is therefore summed
    from a form whose every term has the size of the result
    (:func:`_score_series`); the derivative always comes from trigamma
    values.
    """
    kappa = np.asarray(kappa, dtype=float)
    # one reduction settles the common case, no kappa in the series range;
    # fmax skips a NaN kappa, which must not decide the other rows' form
    big = kappa >= _KAPPA_SERIES if np.fmax.reduce(kappa, axis=None, initial=0.0) >= _KAPPA_SERIES else None
    if big is not None and not deriv and big.all():
        return _score_series(y, mu, kappa)
    k = kappa[..., None]
    n = y.shape[-1]
    resid, k_mu, ky = (y - mu, k + mu, y + k) if terms is None else terms
    # one kernel call for the cells and kappa itself, in the last column
    poly = _polygamma(np.concatenate((ky, k), axis=-1), deriv)
    psi, tri = poly if deriv else (poly, None)
    # every sum over the cells in one reduction, a row each: psi(y + kappa),
    # log(kappa + mu) and (y - mu) / (kappa + mu), with ``deriv`` also
    # psi'(y + kappa), 1 / (kappa + mu) and (y - mu) / (kappa + mu)^2
    cells = np.empty(k_mu.shape[:-1] + (6 if deriv else 3, n))
    cells[..., 0, :] = psi[..., :-1]
    np.log(k_mu, out=cells[..., 1, :])
    np.divide(resid, k_mu, out=cells[..., 2, :])
    if deriv:
        cells[..., 3, :] = tri[..., :-1]
        np.divide(1.0, k_mu, out=cells[..., 4, :])
        np.divide(resid, k_mu**2, out=cells[..., 5, :])
    sums = cells.sum(-1)
    # sum((mu - y) / (kappa + mu)) is minus the sum of (y - mu) / (kappa + mu): negation is exact
    score = sums[..., 0] - n * psi[..., -1] + n * np.log(kappa) - sums[..., 1] - sums[..., 2]
    if big is not None:
        score = np.where(big, _score_series(y, mu, kappa), score)
    if not deriv:
        return score
    return score, sums[..., 3] - n * tri[..., -1] + n / kappa - sums[..., 4] + sums[..., 5]


def _score_series(y: np.ndarray, mu: np.ndarray, kappa: np.ndarray):
    """The score as sum(log1p(u) - u + d(y + kappa) - d(kappa)).

    Here u = (y - mu) / (kappa + mu) and d(x) = psi(x) - log(x), taken
    from its asymptotic series; the first omitted term is below
    1 / (240 kappa^8).
    """
    k = kappa[..., None]
    u = (y - mu) / (k + mu)
    ky = k + y
    d_diff = (
        y / (2.0 * k * ky)
        + y * (2.0 * k + y) / (12.0 * (k * ky) ** 2)
        - (k**-4 - ky**-4) / 120.0
        + (k**-6 - ky**-6) / 252.0
    )
    return (np.log1p(u) - u + d_diff).sum(-1)


# arguments from which psi and psi' are summed from their asymptotic series alone
_POLYGAMMA_SHIFT = 10.0

# coefficients of 1 / x^2k in the digamma series, B_2k / 2k, and of
# 1 / x^(2k + 1) in the trigamma series, the Bernoulli numbers B_2k, for
# k = 7 down to 1
_DIGAMMA_SERIES = tuple(map(np.float64, (
    1.0 / 12.0, -691.0 / 32760.0, 1.0 / 132.0, -1.0 / 240.0, 1.0 / 252.0, -1.0 / 120.0, 1.0 / 12.0,
)))
_TRIGAMMA_SERIES = tuple(map(np.float64, (
    7.0 / 6.0, -691.0 / 2730.0, 5.0 / 66.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 1.0 / 6.0,
)))

_SHIFT_STEPS = np.arange(_POLYGAMMA_SHIFT)


def _polygamma(x: np.ndarray, trigamma: bool = False):
    """Digamma psi(x), and with ``trigamma`` also psi'(x), for an array (not a 0-d one) of x > 0, elementwise.

    From x = 10 on, the asymptotic series psi(x) = log x - 1/(2x) -
    sum B_2k / (2k x^2k) and psi'(x) = 1/x + 1/(2 x^2) + sum B_2k /
    x^(2k + 1), through B_14, are exact to rounding. Below, the
    recurrences psi(x) = psi(x + 1) - 1/x and psi'(x) = psi'(x + 1) +
    1/x^2 first move the argument to x + 10 (Bernardo 1976, Appl.
    Statist. 25:315-317, Algorithm AS 103); one shift serves both. Its
    ten terms are one broadcast over a last axis, added in a fixed
    order, first to last. Each element's arithmetic depends on its
    value alone, not on the shape of ``x``, so a batched solve agrees
    with a one-row solve bit for bit. The digamma series is summed as
    log x - 1/(2x) - tail, with the tail by Horner's rule, as scipy's
    ``psi`` sums it from x = 10 on, so fits whose arguments lie there
    keep the bits they had when the package used scipy.
    """
    x = np.asarray(x, dtype=float)
    shift = np.fmin.reduce(x, axis=None, initial=np.inf) < _POLYGAMMA_SHIFT  # NaN-blind, like x < 10
    if shift:
        small = x < _POLYGAMMA_SHIFT
        z = x + _POLYGAMMA_SHIFT * small
    else:
        z = x
    inv2 = 1.0 / (z * z)
    psi = np.log(z) - 0.5 / z - _horner(_DIGAMMA_SERIES, inv2)
    if trigamma:
        tri = (1.0 + (0.5 + _horner(_TRIGAMMA_SERIES, inv2) * z) / z) / z
    if shift:
        terms = x[small][:, None] + _SHIFT_STEPS
        psi[small] -= np.add.accumulate(1.0 / terms, axis=-1)[:, -1]
        if trigamma:
            terms *= terms
            np.divide(1.0, terms, out=terms)
            tri[small] += np.add.accumulate(terms, axis=-1)[:, -1]
    return (psi, tri) if trigamma else psi


def _horner(coefs: Tuple[np.float64, ...], u: np.ndarray) -> np.ndarray:
    """sum coefs[-k] u^k over k = 1 .. len(coefs), by Horner's rule."""
    tail = coefs[0] * u
    for c in coefs[1:]:
        tail += c
        tail *= u
    return tail


def _boundary_sum(y: np.ndarray, resid: np.ndarray):
    """S = sum((y - mu)^2 - y) per triangle, from ``resid`` = y - mu: whether the kappa maximiser is the cap.

    As kappa grows the score tends to -S / (2 kappa^2), so the
    likelihood still rises toward the cap when S is not positive. The
    sign of S decides this exactly, without summing a score of order
    1e-14 at the cap.
    """
    return (resid**2 - y).sum(-1)


def _start_kappa(y: np.ndarray, mu: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """The joint fit's first kappa, per triangle, at the Poisson means ``mu``.

    KAPPA_CAP at the Poisson boundary (:func:`_boundary_sum`);
    otherwise the Pearson moment estimate n / sum(((y - mu)^2 - mu) /
    mu^2), the classical start for joint maximum likelihood (Lawless
    1987, Can. J. Statist. 15:209-225), or where that is degenerate (not
    positive or not below the cap) the large-kappa moment sum(mu^2) / S,
    S > 0. Both are kept in [KAPPA_MIN, KAPPA_CAP), so the joint loop
    takes every row not at the boundary. Only the cells ``mask`` marks
    are counted.
    """
    resid, mu2 = y - mu, mu * mu
    pearson = (resid**2 - mu) / mu2
    n = y.shape[-1]
    if mask is not None:
        mu = mu * mask
        pearson, n, resid, mu2 = pearson * mask, mask.sum(axis=-1), y - mu, mu2 * mask
    pearson = pearson.sum(axis=-1)
    excess = _boundary_sum(y, resid)
    with np.errstate(divide="ignore", invalid="ignore"):
        moment = n / pearson
        start = np.where((pearson > 0) & (moment < KAPPA_CAP), moment, mu2.sum(-1) / excess)
    return np.where(excess <= 0.0, KAPPA_CAP, start.clip(KAPPA_MIN, _BELOW_CAP))


_solve_kappa = _start_kappa  # not called here: bench/spans.py hooks dispersion:_solve_kappa


def nb_mle(y: np.ndarray, design: Design) -> Tuple[np.ndarray, np.ndarray, float, bool]:
    """Joint maximum likelihood over (mean effects, kappa).

    The fit of one triangle at its estimate (:func:`_fit_at_estimate`):
    joint Newton iterations over the coefficients and log kappa from the
    closed-form chain-ladder Poisson fit, with the means refitted at the
    cap when the estimate is there. It is the fit :func:`_joint_fit`
    remembers for its readers, bit for bit, but this call neither reads
    nor writes that memo. The fit depends on the counts and the design
    alone.

    Returns (coef, mu, kappa, at_boundary).

    Raises:
        TriangleError: the design's cells are not a triangle's, or a count or an
            accident year's total is not an integer in [0, 2**53), as for ``glm.fit``.
        SeparationError: a factor level has all-zero counts, or the
            likelihood has no finite maximum.
        NotConvergedError: the fit failed as :func:`_nb_mle_batch`
            describes, or the refit at the cap did not converge.
    """
    _check_layout(design.ay_idx + 1, design.dy_idx)
    y = np.asarray(y, dtype=float)
    _check_counts(y, design)
    return _fit_at_estimate(y, design, _poisson_fit(y, design))


def _fit_at_estimate(
    y: np.ndarray, design: Design, poisson: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, float, bool]:
    """(coef, mu, kappa, at_boundary): the one-row :func:`_nb_mle_batch` fit, its means refitted at the cap.

    Below the cap this is the kernel's fit. At the cap the kernel's means
    belong to the last kappa it tried, so :func:`_refit_means` refits
    them at the cap, from the kernel's coefficients. ``poisson``, the
    kernel's start, is :func:`nbreserve.glm._poisson_fit` of the counts.

    Raises:
        NotConvergedError: the kernel's fit failed, or the refit at the
            cap did not converge.
    """
    coef, mu, kappa, ok, _ = _nb_mle_batch(y[None], design, poisson=poisson)
    if not ok[0]:
        raise NotConvergedError(
            f"joint NB fit failed: singular, unbounded or not converged in {_IRLS_MAX_ITER} iterations"
        )
    coef, mu, kappa = coef[0], mu[0], float(kappa[0])
    if kappa == KAPPA_CAP:
        coef, mu = _refit_means(y, design, kappa, coef)
    return coef, mu, kappa, kappa == KAPPA_CAP


def _nb_mle_batch(
    Y: np.ndarray, design: Design, poisson: Tuple[np.ndarray, ...],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint maximum likelihood over (mean effects, kappa) for each row of ``Y``.

    All rows share ``design``. The caller hands it the chain-ladder fit
    ``poisson`` (:func:`nbreserve.glm._chain_ladder_batch` of ``Y``)
    that decided its kept levels, which the fit copies: it gives each
    row's kept levels and its start. Each row is fitted on its kept
    cells, those whose two levels it keeps, by one cell mask, built only
    when some row drops a level; :class:`nbreserve.glm._NormalEquations`
    holds the coefficients of the levels the mask leaves without weight.
    A left-out cell holds a zero count and gets zero working weight; the
    kappa score sees it at its limit y = mu = 0, where it adds nothing,
    so each row's kappa is that of its kept cells.

    A row at the Poisson boundary at its start stops at KAPPA_CAP; every
    other row starts at the closed-form :func:`_start_kappa`, the
    Pearson moment estimate, with no solve of the kappa score at the
    Poisson means. From there each iteration takes one Newton step for
    the coefficients at fixed kappa
    (:func:`nbreserve.glm._newton_step`, the step of every fit at
    fixed kappa), with the observed information, whose working weights
    mu kappa (kappa + y) / (kappa + mu)^2 stay positive, and step
    halving on the deviance, its system solved by two-way elimination
    (:class:`nbreserve.glm._NormalEquations`: the accident-year effects
    are eliminated, leaving a (J - 1)-square system for every row);
    then one Newton step in log kappa at the new means, capped at one
    unit and kept in [KAPPA_MIN, KAPPA_CAP].
    Mean and dispersion are information-orthogonal in this family, so
    the two steps together converge about as fast as a full Newton
    step. A row stops when its Newton decrement, the log-likelihood
    gain the two steps predict, is at most the tolerance the coefficient
    step returns, the stop rule of every fit at fixed kappa; it stops
    at KAPPA_CAP when :func:`_boundary_sum` is not positive at its means
    or a kappa step reaches the cap, with the coefficients of its last
    step. Each row's arithmetic does not depend on the other rows of
    the batch.

    Each iteration gathers the live rows' counts and kappa once and
    forms each cell term once: y + kappa serves the coefficient step's
    weights, deviances and slack and the kappa score's digamma
    arguments; y - mu at the new means serves the kappa score and
    :func:`_boundary_sum`. One ``np.errstate`` covers the whole loop,
    since the warnings of singular and diverging rows, which fail, are
    noise.

    Returns (coef, mu, kappa, ok, n_iter); n_iter counts each row's
    joint iterations, and ok is False for rows with no Poisson fit,
    whose normal equations were singular, whose likelihood
    rises without bound (no halving of a step lowers the deviance, or a
    kept mean reaches the clip of the linear predictor) or that did not
    converge in ``_IRLS_MAX_ITER`` iterations.
    """
    m = len(Y)
    coef, mu, poisson_ok, ay_keep, dy_keep = poisson
    coef, mu = coef.copy(), mu.copy()
    mask = None if ay_keep.all() and dy_keep.all() else ay_keep[:, design.ay_idx] & dy_keep[:, design.dy_idx]
    kappa = np.full(m, np.nan)
    ok = np.zeros(m, dtype=bool)
    n_iter = np.zeros(m, dtype=np.int64)

    live = np.nonzero(poisson_ok)[0]
    kappa[live] = _start_kappa(Y[live], mu[live], None if mask is None else mask[live])
    cap = kappa >= KAPPA_CAP
    kappa[cap], ok[cap] = KAPPA_CAP, True
    live = live[~cap[live]]
    normal = _NormalEquations(design, live.size, mask)
    log_min = math.log(KAPPA_MIN)

    # singular and diverging rows fail, and the squares of a diverging
    # fit's means may overflow in the kappa step
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(1, _IRLS_MAX_ITER + 1):
            if live.size == 0:
                break
            n_iter[live] = it
            y, kap = Y[live], kappa[live]
            k = kap[:, None]
            ky = y + k
            # Newton step for the coefficients at fixed kappa, as glm._irls takes it
            decrement, tol, failed, mu_l = _newton_step(normal, live, y, coef, mu, k, ky)

            # Newton step in theta = log kappa at the new means
            mu_k = _kept(mu_l, mask, live)
            resid = y - mu_k
            s, s_kappa = _kappa_score(y, mu_k, kap, deriv=True, terms=(resid, k + mu_k, ky))
            g_t = kap * s
            h_t = g_t + kap * kap * s_kappa
            newton = -g_t / h_t
            cap = _boundary_sum(y, resid) <= 0.0
            concave = h_t < 0.0
            theta = np.log(kap) + np.where(concave, newton.clip(-1.0, 1.0), np.sign(g_t))
            floor = theta <= log_min
            # at the floor with the score pointing below it, kappa is settled
            settled = floor & (kap == KAPPA_MIN) & (g_t <= 0.0)
            decrement += np.where(settled, 0.0, np.where(concave, g_t * newton, np.inf))
            kappa[live] = np.where(floor, KAPPA_MIN, np.exp(theta))

            cap |= theta >= _LOG_CAP
            kappa[live[cap]] = KAPPA_CAP
            done = ~failed & (cap | (np.abs(decrement) <= tol))
            ok[live[done]] = True
            live = live[~(done | failed)]
    return coef, mu, kappa, ok, n_iter


def _joint_fit(y: np.ndarray, design: Design) -> _JointFit:
    """:func:`nb_mle` of prepared counts (:func:`_fit_at_estimate`), with both log-likelihoods there.

    The record (:class:`nbreserve.glm._JointFit`) is remembered in
    ``nbreserve.glm._last_joint_fit``, which nothing else writes, for the
    next call on the same data (:func:`nbreserve.glm._data_key`); the
    fits are deterministic, so a remembered record is the one a new call
    would give. Its readers are :func:`profile_kappa`,
    :func:`overdispersion_test`, :func:`nbreserve.predictive.bootstrap`
    (the base fit) and :func:`nbreserve.glm.fit` at the record's kappa;
    :func:`nb_mle` neither reads nor writes it. Returns it with copies
    of its arrays.
    """
    key = _data_key(y, design)
    seen, joint = glm._last_joint_fit
    if seen != key:
        log_factorials = _lgamma(y + 1.0)
        poisson = _poisson_fit(y, design)
        coef, mu, kappa, at_boundary = _fit_at_estimate(y, design, poisson)
        ll_p = _poisson_loglik(y, poisson[1][0], log_factorials)
        ll_nb = _nb_loglik(y, mu, kappa, log_factorials)
        joint = _JointFit(coef, mu, kappa, at_boundary, ll_nb, ll_p, log_factorials)
        glm._last_joint_fit = (key, joint)
    return joint._replace(coef=joint.coef.copy(), mu=joint.mu.copy(), log_factorials=joint.log_factorials.copy())


def overdispersion_test(data: Sequence) -> SelectionReport:
    """Likelihood-ratio comparison of Poisson against negative binomial.

    The null (Poisson) puts kappa on the boundary of the parameter
    space, so the p-value is half a chi-square(1) tail, computed through
    the complementary error function. Equal likelihoods give p = 0.5.
    Both log-likelihoods are the joint fit's (:func:`_joint_fit`), which
    :func:`profile_kappa` shares: the Poisson one at the Poisson fit it
    starts from (the closed-form chain-ladder), the negative binomial
    one the profile's maximum.

    Raises:
        SeparationError: the likelihood has no finite maximum.
    """
    y, design = _prepare(data)
    _, _, kappa, _, ll_nb, ll_p, _ = _joint_fit(y, design)

    statistic = max(0.0, 2.0 * (ll_nb - ll_p))
    p_value = 0.5 * math.erfc(math.sqrt(statistic / 2.0))
    p = design.p
    n = design.n
    return SelectionReport(
        statistic=statistic,
        p_value=p_value,
        kappa_mle=kappa,
        loglik_poisson=ll_p,
        loglik_nb=ll_nb,
        aic_poisson=-2.0 * ll_p + 2.0 * p,
        aic_nb=-2.0 * ll_nb + 2.0 * (p + 1),
        bic_poisson=-2.0 * ll_p + p * math.log(n),
        bic_nb=-2.0 * ll_nb + (p + 1) * math.log(n),
    )


def adjusted_profile_loglik(data: Sequence, kappa: float) -> float:
    """Cox-Reid adjusted profile log-likelihood at one kappa.

    l_AP(kappa) = l_p(kappa) - 0.5 * log det j(kappa), where j is the
    expected information for the mean effects at the constrained fit.
    """
    y, design = _prepare(data)
    return _adjusted_profile(_ProfileCache(y, design), kappa)


def _adjusted_profile(profile: _ProfileCache, kappa: float) -> float:
    ll = profile(kappa)
    w = Family.negbin(kappa).working_weight(profile.mu)
    X = profile.design.X
    info = (X * w[:, None]).T @ X
    sign, logdet = np.linalg.slogdet(info)
    if sign <= 0:
        raise SingularInformationError(f"information matrix not positive definite at kappa={kappa:.4g}")
    return ll - 0.5 * logdet


def maximize_adjusted_profile(data: Sequence) -> float:
    """Numerically maximise the adjusted profile likelihood over kappa.

    Exposed as an alternative to the closed-form :func:`bias_correct`;
    both shrink the MLE, and they agree to first order.
    """
    y, design = _prepare(data)
    profile = _ProfileCache(y, design)

    def f(theta: float) -> float:
        return _adjusted_profile(profile, math.exp(theta))

    thetas = np.linspace(math.log(KAPPA_MIN), math.log(KAPPA_CAP), _ADJUSTED_GRID_SIZE)
    values = np.array([f(t) for t in thetas])
    best = int(np.argmax(values))
    if best == len(thetas) - 1:
        return KAPPA_CAP
    theta_hat, _ = _golden_max(f, thetas[max(best - 1, 0)], thetas[best + 1])
    return math.exp(theta_hat)
