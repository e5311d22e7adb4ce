"""Dispersion estimation for the negative binomial count model.

The dispersion kappa is estimated by maximum likelihood: the joint fit
:func:`nb_mle` runs Newton iterations over the mean effects and log
kappa together, from the closed-form chain-ladder Poisson fit and the
Pearson moment estimate of kappa at its means (:func:`_start_kappa`),
and so maximises the profile
l_p(kappa) = l(alpha_hat(kappa), beta_hat(kappa), kappa) over log kappa
in [1e-3, 1e8]. The bootstrap engine refits its replicates with the
same kernel, :func:`_nb_mle_batch`, of which :func:`nb_mle` is the
batch of one. Confidence intervals invert the likelihood-ratio
statistic at the chi-square(1) 0.95 quantile. Each endpoint is one
Newton solve of {coefficient score = 0, l = l_hat - 3.841 / 2} for the
coefficients and log kappa together (Venzon and Moolgavkar, 1988),
started from the quadratic profile, whose curvature is analytic
(:func:`_profile_curvature`), or at the cap from the profile's
large-kappa expansion. Refits of the means at fixed kappa
(:func:`nbreserve.glm._irls`) remain for the estimate at the cap, a
bound, a fallback search and the plotting grid. :func:`profile_kappa`
and :func:`overdispersion_test` on the same data share one joint fit,
the last one made (``nbreserve.glm._last_joint_fit``), and
:func:`nbreserve.glm.fit` at its kappa on those data starts from its
coefficients, or at the cap from the profile's refit there.

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
    _ETA_BOUND, _IRLS_MAX_ITER, _KAPPA_SERIES, Design, Family, _data_key, _irls, _newton_step, _NormalEquations,
    _lgamma, _nb_loglik, _poisson_batch, _prepare, nb_loglik, poisson_loglik,
)

KAPPA_MIN = 1e-3
KAPPA_CAP = 1e8
_BELOW_CAP = math.nextafter(KAPPA_CAP, 0.0)  # the largest kappa a joint fit starts from

# chi-square(1) quantile at 0.95, used to invert the profile LRT
CHI2_1_95 = 3.841458820694124

# log-spaced profile points `nbreserve diagnose` adds to the exported curve
_GRID_SIZE = 60

# Newton steps after which an interval endpoint's solve counts as not settled
_ENDPOINT_STEPS = 20


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


def bias_correct(kappa_mle: float, n_obs: int, n_params: int) -> float:
    """Closed-form small-sample correction kappa * (n - p) / n.

    The correction removes the first-order bias from profiling out the
    p mean parameters; with p = 0 it is the identity.

    Raises:
        NoResidualDofError: n_obs <= n_params, as in a 2 x 2 triangle.
    """
    if not kappa_mle > 0:
        raise ValueError(f"kappa_mle must be positive, got {kappa_mle}")
    if n_params < 0:
        raise ValueError(f"n_params must be nonnegative, got {n_params}")
    if n_obs <= n_params:
        raise NoResidualDofError(f"no residual degrees of freedom: {n_obs} observed cells for {n_params} parameters")
    return kappa_mle * (n_obs - n_params) / n_obs


class _ProfileCache:
    """Profile log-likelihood evaluator with warm-started Newton refits.

    Each call refits the means at one kappa by
    :func:`nbreserve.glm._irls`, starting from the previous call's
    coefficients (or ``warm``, by default the closed-form Poisson fit),
    and records (kappa, loglik); ``mu`` holds the last call's fitted
    means. A point known without a refit, such as the joint fit's, may
    be appended to ``evals`` directly. Warm-started from a nearby
    kappa's fit a refit takes about three steps.

    Raises:
        NotConvergedError: a refit did not converge.
    """

    def __init__(self, y: np.ndarray, design: Design, warm: Optional[np.ndarray] = None):
        if warm is None:
            coef, _, ok = _poisson_batch(y[None], design)
            if not ok[0]:
                raise NotConvergedError("Poisson fit did not converge")
            warm = coef[0]
        self.y = y
        self.design = design
        self.warm = warm
        self.log_factorials = _lgamma(y + 1.0)  # each cell's log y!, the same at every kappa
        self.mu: Optional[np.ndarray] = None
        self.evals: List[Tuple[float, float]] = []

    def __call__(self, kappa: float) -> float:
        coef, mu, _, _, converged, _ = _irls(self.y, self.design, Family.negbin(kappa), start=self.warm)
        if not converged:
            raise NotConvergedError(f"profile refit at kappa={kappa:.4g} did not converge")
        self.warm, self.mu = coef, mu
        ll = _nb_loglik(self.y, self.mu, kappa, self.log_factorials)
        self.evals.append((kappa, ll))
        return ll


def _golden_max(f, lo: float, hi: float, tol: float = 1e-7) -> Tuple[float, float]:
    """Golden-section maximisation of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
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
    """Kappa between exp(theta_hat) and ``bound`` where the profile falls to ``target``.

    :func:`_endpoint_newton` solves for it from ``start`` (coefficients,
    log kappa). If the solve fails, one refit at ``bound`` tells whether
    the profile stays above the target up to ``bound``, the endpoint
    then; otherwise :func:`_bracketed_endpoint` searches.
    """
    end = math.log(bound)
    solved = _endpoint_newton(profile, *start, target, theta_hat, end)
    if solved is not None:
        theta, _, ll, _ = solved
        kappa = math.exp(theta)
        profile.evals.append((kappa, ll))
        return kappa
    if profile(bound) >= target:
        return bound
    return _bracketed_endpoint(profile, theta_hat, end, target)


def _endpoint_newton(
    profile: _ProfileCache, coef: np.ndarray, theta: float, target: float, inner: float, outer: float,
) -> Optional[Tuple[float, np.ndarray, float, int]]:
    """A profile-interval endpoint by Newton's method (Venzon & Moolgavkar 1988, Appl. Statist. 37:87-94).

    Solves {X^T s = 0, l(coef, theta) = target} for the coefficients and
    theta = log kappa together, s being each cell's coefficient score
    kappa (y - mu) / (kappa + mu); with a zero score the solution lies on
    the profile. The Jacobian [[-X^T W X, c], [(X^T s)^T, kappa s_kappa]]
    is solved by eliminating its coefficient block. The counts, design
    and log y! are ``profile``'s.

    Returns (theta, coef, loglik, steps) after the first step that moves
    neither theta nor a coefficient by more than 1e-6, which by Newton's
    quadratic convergence leaves an error of order 1e-12; None when an
    iterate leaves (inner, outer] or ``_ENDPOINT_STEPS`` steps pass.
    """
    y, X, log_factorials = profile.y, profile.design.X, profile.log_factorials
    side = 1.0 if outer > inner else -1.0
    # a diverging iterate's means may overflow here; its next theta is
    # then not finite, or outside the bracket, and the iteration fails
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for steps in range(1, _ENDPOINT_STEPS + 1):
            kappa = math.exp(theta)
            mu = np.exp((X @ coef).clip(-_ETA_BOUND, _ETA_BOUND))
            g, info, c = _tangent_terms(y, X, mu, kappa)
            try:
                u, v = np.linalg.solve(info, np.column_stack((g, c))).T
            except np.linalg.LinAlgError:
                return None
            slope = g @ v + kappa * float(_kappa_score(y, mu, kappa))
            d_theta = -(_nb_loglik(y, mu, kappa, log_factorials) - target + g @ u) / slope
            d_coef = u + v * d_theta
            theta += d_theta
            coef = coef + d_coef
            if not (side * (theta - inner) > 0.0 and side * (theta - outer) <= 0.0):
                return None
            if max(abs(d_theta), float(np.abs(d_coef).max())) <= 1e-6:
                mu = np.exp((X @ coef).clip(-_ETA_BOUND, _ETA_BOUND))
                return theta, coef, _nb_loglik(y, mu, math.exp(theta), log_factorials), steps
    return None


def _bracketed_endpoint(profile: _ProfileCache, inner: float, outer: float, target: float) -> float:
    """The endpoint between log kappas ``inner`` (profile above ``target``) and ``outer`` (below).

    Newton's method on the profile, refitting the means at each point,
    from the profile's last refit, which must be at ``outer``; a step
    leaving the bracket is replaced by bisection. By the envelope
    theorem the slope of l_p in log kappa is kappa times the kappa score
    at the refitted means.
    """
    kappa, ll = profile.evals[-1]
    theta, drop = outer, ll - target
    for _ in range(100):
        slope = kappa * float(_kappa_score(profile.y, profile.mu, kappa))
        theta_new = theta - drop / slope if slope != 0.0 else math.inf
        if not min(inner, outer) < theta_new < max(inner, outer):
            theta_new = 0.5 * (inner + outer)
        if abs(theta_new - theta) < 1e-9:
            return kappa
        theta = theta_new
        kappa = math.exp(theta)
        drop = profile(kappa) - target
        if drop < 0.0:
            outer = theta
        else:
            inner = theta
    raise NotConvergedError(f"profile interval endpoint near kappa={kappa:.4g} did not settle")


def profile_kappa(data: Sequence, grid_size: int = 0) -> KappaEstimate:
    """Profile-likelihood dispersion estimate with 95% interval.

    The estimate is the joint maximum-likelihood fit of :func:`nb_mle`,
    the maximiser of the profile over log kappa in [1e-3, 1e8], whose
    log-likelihood is the profile's maximum; only an estimate at the
    cap is refitted there, since the fit's means belong to the last
    kappa it tried. An :func:`overdispersion_test` on the same data
    reuses that fit. Interior estimates whose analytic profile curvature
    (:func:`_profile_curvature`) is flat are rejected. Each interval
    endpoint is where the profile falls 3.841 / 2 below its maximum,
    found by :func:`_ci_endpoint`, or the end of the search range if
    the profile stays above that level. A maximiser at the upper cap is
    reported with ``at_boundary=True`` and means the data are
    Poisson-compatible; its interval runs up to the cap, and only its
    lower endpoint is solved for, from the large-kappa expansion.

    ``profile_curve`` holds the estimate, the endpoints and any refits
    at a bound or in a fallback search; ``grid_size`` > 0 adds that
    many log-spaced points over the search range, for plotting. They
    change neither the estimate nor the interval.

    Raises:
        FlatProfileError: interior optimum with curvature below 1e-6 on
            the log-kappa scale, so kappa is not identified.
        NotConvergedError: the joint fit, a refit on the way to the
            interval, or the bracketed endpoint search did not converge.
    """
    y, design = _prepare(data)
    coef, mu, kappa_hat, at_boundary, _ = _joint_fit(y, design)
    profile = _ProfileCache(y, design, warm=coef)
    theta_hat = math.log(kappa_hat)
    if at_boundary:
        # at the cap the joint fit's means belong to the kappa it left;
        # glm.fit there starts from the refit's coefficients, taken before
        # the interval and the grid move the profile's refits
        ll_hat = profile(kappa_hat)
        key, joint, _ = glm._last_joint_fit  # the fit _joint_fit just gave
        glm._last_joint_fit = (key, joint, (kappa_hat, profile.warm))
    else:
        ll_hat = _nb_loglik(y, mu, kappa_hat, profile.log_factorials)
        profile.evals.append((kappa_hat, ll_hat))
        curv, tangent = _profile_curvature(y, design.X, mu, kappa_hat)
        if curv > -1e-6:
            raise FlatProfileError(
                f"profile curvature {curv:.3g} at kappa={kappa_hat:.4g}; "
                "dispersion not identified"
            )

    target = ll_hat - 0.5 * CHI2_1_95
    if at_boundary:
        # near the cap l_p(kappa) ~ l_hat + S / (2 kappa), S = sum((y - mu)^2 - y),
        # which falls to the target at kappa = -S / 3.841: start there
        s = float(np.sum((y - profile.mu) ** 2 - y))
        theta = min(math.log(max(-s / CHI2_1_95, KAPPA_MIN)), math.nextafter(theta_hat, -math.inf))
        lower, upper = _ci_endpoint(profile, theta_hat, target, KAPPA_MIN, (profile.warm, theta)), KAPPA_CAP
    else:
        # start from the quadratic profile's endpoints, moving the
        # coefficients along the profile's tangent (X^T W X)^-1 c
        half_width = math.sqrt(CHI2_1_95 / -curv)
        ends = []
        for bound, d in ((KAPPA_MIN, -half_width), (KAPPA_CAP, half_width)):
            profile.warm = coef  # where a refit at the bound starts
            ends.append(_ci_endpoint(profile, theta_hat, target, bound, (coef + tangent * d, theta_hat + d)))
        lower, upper = ends

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


def _kappa_score(y: np.ndarray, mu: np.ndarray, kappa, deriv: bool = False):
    """d/d kappa of the NB log-likelihood at fixed means, and with ``deriv`` its own kappa derivative.

    ``y`` and ``mu`` are one triangle's cells with a scalar ``kappa``,
    or matrices whose rows are triangles with one kappa each. Returns
    the score, or (score, derivative) from one :func:`_polygamma` call.

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
    # one kernel call for the cells and kappa itself, in the last column
    poly = _polygamma(np.concatenate((y + k, k), axis=-1), deriv)
    psi, tri = poly if deriv else (poly, None)
    k_mu = k + mu
    excess = mu - y
    score = (
        psi[..., :-1].sum(-1) - n * psi[..., -1]
        + n * np.log(kappa)
        - np.log(k_mu).sum(-1)
        + (excess / k_mu).sum(-1)
    )
    if big is not None:
        score = np.where(big, _score_series(y, mu, kappa), score)
    if not deriv:
        return score
    slope = (
        tri[..., :-1].sum(-1) - n * tri[..., -1]
        + n / kappa
        - (1.0 / k_mu).sum(-1)
        - (excess / k_mu**2).sum(-1)
    )
    return score, slope


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
    """Digamma psi(x), and with ``trigamma`` also psi'(x), for an array of x > 0, elementwise.

    From x = 10 on, the asymptotic series psi(x) = log x - 1/(2x) -
    sum B_2k / (2k x^2k) and psi'(x) = 1/x + 1/(2 x^2) + sum B_2k /
    x^(2k + 1), through B_14, are exact to rounding. Below, the
    recurrences psi(x) = psi(x + 1) - 1/x and psi'(x) = psi'(x + 1) +
    1/x^2 first move the argument to x + 10 (Bernardo 1976, Appl.
    Statist. 25:315-317, Algorithm AS 103); one shift serves both. Its
    ten terms are one broadcast over a last axis, added in a fixed
    order, first to last. Each element's arithmetic depends on its
    value alone, not on the shape of ``x``, so a batched solve agrees
    with the scalar one bit for bit. The digamma series is summed as
    log x - 1/(2x) - tail, with the tail by Horner's rule, as scipy's
    ``psi`` sums it from x = 10 on, so fits whose arguments lie there
    keep the bits they had when the package used scipy.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1)
    shift = np.fmin.reduce(x, initial=np.inf) < _POLYGAMMA_SHIFT  # NaN-blind, like x < 10
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
    if not trigamma:
        return psi.reshape(shape)
    return psi.reshape(shape), tri.reshape(shape)


def _horner(coefs: Tuple[np.float64, ...], u: np.ndarray) -> np.ndarray:
    """sum coefs[-k] u^k over k = 1 .. len(coefs), by Horner's rule."""
    tail = coefs[0] * u
    for c in coefs[1:]:
        tail += c
        tail *= u
    return tail


def _at_poisson_boundary(y: np.ndarray, mu: np.ndarray):
    """Whether the kappa maximiser is the cap, per triangle.

    As kappa grows the score tends to -sum((y - mu)^2 - y) / (2 kappa^2),
    so the likelihood still rises toward the cap when that sum is not
    positive. The sign of the sum decides this exactly, without summing
    a score of order 1e-14 at the cap.
    """
    return ((y - mu) ** 2 - y).sum(-1) <= 0.0


def _solve_kappa(y: np.ndarray, mu: np.ndarray, kappa0: float) -> float:
    """:func:`_solve_kappa_batch` on one row.

    No fit calls it; it keeps the one-triangle name that the traced
    benchmark (``bench/spans.py``) hooks, and tests check a joint fit's
    kappa against it.
    """
    y, mu = np.asarray(y, dtype=float), np.asarray(mu, dtype=float)
    return float(_solve_kappa_batch(y[None], mu[None], np.array([kappa0], dtype=float))[0])


def _solve_kappa_batch(Y: np.ndarray, mu: np.ndarray, kappa0: np.ndarray) -> np.ndarray:
    """Maximise the NB log-likelihood over kappa at fixed means, for each row of ``Y`` and ``mu``.

    No fit calls it: the joint fit starts at :func:`_start_kappa`.

    Safeguarded Newton iteration on log kappa within [KAPPA_MIN,
    KAPPA_CAP] from ``kappa0``, keeping a bracket of the root of the
    score; a row leaves the loop when its step is below 1e-10 or its
    score is exactly zero. Returns
    KAPPA_CAP for rows at the Poisson boundary and KAPPA_MIN for rows
    whose score is not positive there.
    """
    out = np.full(len(Y), KAPPA_CAP)
    live = np.nonzero(~_at_poisson_boundary(Y, mu))[0]
    floor = _kappa_score(Y[live], mu[live], np.full(live.size, KAPPA_MIN)) <= 0.0
    out[live[floor]] = KAPPA_MIN
    live = live[~floor]
    lo = np.full(live.size, math.log(KAPPA_MIN))
    hi = np.full(live.size, math.log(KAPPA_CAP))
    theta = np.clip(np.log(kappa0[live]), lo, hi)
    for _ in range(100):
        if live.size == 0:
            break
        y, m = Y[live], mu[live]
        kappa = np.exp(theta)
        s, s_kappa = _kappa_score(y, m, kappa, deriv=True)
        rising = s > 0.0
        lo = np.where(rising, np.maximum(lo, theta), lo)
        hi = np.where(rising, hi, np.minimum(hi, theta))
        g = kappa * s
        h = kappa * s + kappa * kappa * s_kappa
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = theta + (-g / h)
        theta_new = np.where((h < 0.0) & (lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
        # an iterate whose score is exactly zero is the root
        root = s == 0.0
        settled = root | (np.abs(theta_new - theta) < 1e-10)
        theta = np.where(root, theta, theta_new)
        out[live[settled]] = np.exp(theta[settled])
        keep = ~settled
        live, theta, lo, hi = live[keep], theta[keep], lo[keep], hi[keep]
    out[live] = np.exp(theta)
    return out


def _moment_kappa(y: np.ndarray, mu: np.ndarray, mask: Optional[np.ndarray] = None):
    """Moment starting value for kappa from the Pearson statistic, per triangle.

    With ``mask``, only the cells it marks are counted.
    """
    excess = ((y - mu) ** 2 - mu) / (mu * mu)
    n = y.shape[-1]
    if mask is not None:
        excess, n = excess * mask, np.sum(mask, axis=-1)
    excess = np.sum(excess, axis=-1)
    with np.errstate(divide="ignore"):
        kappa = np.where(excess > 0, n / excess, KAPPA_CAP)
    return np.clip(kappa, KAPPA_MIN, KAPPA_CAP)


def _start_kappa(y: np.ndarray, mu: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """The joint fit's first kappa, per triangle, at the Poisson means ``mu``.

    KAPPA_CAP at the Poisson boundary (:func:`_at_poisson_boundary`);
    otherwise the Pearson moment estimate of :func:`_moment_kappa`, the
    classical start for joint maximum likelihood (Lawless 1987, Can. J.
    Statist. 15:209-225), or where that is degenerate (the cap) the
    large-kappa moment sum(mu^2) / S, S = sum((y - mu)^2 - y) > 0. Both
    are kept below the cap, so the joint loop takes every row not at the
    boundary. Only the cells ``mask`` marks are counted.
    """
    moment = _moment_kappa(y, mu, mask)
    if mask is not None:
        mu = mu * mask
    excess = ((y - mu) ** 2 - y).sum(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        start = np.where(moment < KAPPA_CAP, moment, (mu * mu).sum(-1) / excess)
    # excess <= 0 is _at_poisson_boundary's test, on the sum just taken
    return np.where(excess <= 0.0, KAPPA_CAP, start.clip(KAPPA_MIN, _BELOW_CAP))


def nb_mle(y: np.ndarray, design: Design) -> Tuple[np.ndarray, np.ndarray, float, bool]:
    """Joint maximum likelihood over (mean effects, kappa).

    The fit of one triangle by :func:`_nb_mle_batch`, as a batch of one:
    joint Newton iterations over the coefficients and log kappa from
    the closed-form Poisson fit, or the Poisson IRLS fit from its cold
    start where the closed form does not apply. The fit depends on the
    counts and the design alone.

    Returns (coef, mu, kappa, at_boundary).

    Raises:
        NotConvergedError: the fit failed as :func:`_nb_mle_batch`
            describes.
    """
    return _one_fit(_nb_mle_batch(np.asarray(y, dtype=float)[None], design))


def _one_fit(batch: tuple) -> Tuple[np.ndarray, np.ndarray, float, bool]:
    """(coef, mu, kappa, at_boundary) of a one-row :func:`_nb_mle_batch` result, which must be ok."""
    coef, mu, kappa, ok, _ = batch
    if not ok[0]:
        raise NotConvergedError(
            f"joint NB fit failed: singular, unbounded or not converged in {_IRLS_MAX_ITER} iterations"
        )
    return coef[0], mu[0], float(kappa[0]), bool(kappa[0] == KAPPA_CAP)


def _nb_mle_batch(
    Y: np.ndarray,
    design: Design,
    mask: Optional[np.ndarray] = None,
    pin: Optional[np.ndarray] = None,
    poisson: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint maximum likelihood over (mean effects, kappa) for each row of ``Y``.

    All rows share ``design``; ``mask`` (m, n) marks the cells each row
    is fitted on and ``pin`` (m, p) the coefficients it holds at zero,
    as :func:`nbreserve.glm.drop_masks` gives them for the row's
    zero-total levels; both default to none left out. A cell outside
    the mask holds a zero count and gets zero working weight; the kappa
    score sees it at its limit y = mu = 0, where it adds nothing, so
    each row's kappa is that of its kept cells.

    The Poisson fit (:func:`nbreserve.glm._poisson_batch`, the
    closed-form chain-ladder where it applies) gives the means, unless
    the caller passes it as ``poisson`` (whose arrays the fit updates in
    place). A row at the Poisson boundary there stops at KAPPA_CAP; every
    other row starts at the closed-form :func:`_start_kappa`, the
    Pearson moment estimate, with no solve of the kappa score at the
    Poisson means. From there each iteration takes one Newton step for
    the coefficients at fixed kappa
    (:func:`nbreserve.glm._newton_step`, the step of every fit at
    fixed kappa), with the observed information, whose working weights
    mu kappa (kappa + y) / (kappa + mu)^2 stay positive, and step
    halving on the deviance; then one Newton step in log kappa at the
    new means, capped at one unit and kept in [KAPPA_MIN, KAPPA_CAP].
    Mean and dispersion are information-orthogonal in this family, so
    the two steps together converge about as fast as a full Newton
    step. A row stops when its Newton decrement, the log-likelihood
    gain the two steps predict, is at most the tolerance the coefficient
    step returns, the stop rule of every fit at fixed kappa; it stops
    at KAPPA_CAP when :func:`_at_poisson_boundary` holds at its means
    or a kappa step reaches the cap, with the coefficients of its last
    step. Each row's arithmetic does not depend on the other rows of
    the batch.

    Returns (coef, mu, kappa, ok, n_iter); n_iter counts each row's
    joint iterations, and ok is False for rows whose Poisson fit
    failed, whose normal equations were singular, whose likelihood
    rises without bound (no halving of a step lowers the deviance, or a
    kept mean reaches the clip of the linear predictor) or that did not
    converge in ``_IRLS_MAX_ITER`` iterations.
    """
    m = len(Y)
    if poisson is None:
        poisson = _poisson_batch(Y, design)
    coef, mu, poisson_ok = poisson
    kappa = np.full(m, np.nan)
    ok = np.zeros(m, dtype=bool)
    n_iter = np.zeros(m, dtype=np.int64)

    def kept(a, rows):
        return a if mask is None else a * mask[rows]

    live = np.nonzero(poisson_ok)[0]
    kappa[live] = _start_kappa(Y[live], mu[live], None if mask is None else mask[live])
    cap = kappa >= KAPPA_CAP
    kappa[cap], ok[cap] = KAPPA_CAP, True
    live = live[~cap[live]]
    normal = _NormalEquations(design.X, live.size, pin)
    log_min, log_cap = math.log(KAPPA_MIN), math.log(KAPPA_CAP)

    for _ in range(_IRLS_MAX_ITER):
        if live.size == 0:
            break
        n_iter[live] += 1
        y = Y[live]
        # Newton step for the coefficients at fixed kappa, as glm._irls takes it
        decrement, tol, failed = _newton_step(normal, live, Y, coef, mu, kappa[live][:, None], mask)

        # Newton step in theta = log kappa at the new means; the squares
        # of a diverging fit's means may overflow here, leaving it to fail
        mu_k, kap = kept(mu[live], live), kappa[live]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s, s_kappa = _kappa_score(y, mu_k, kap, deriv=True)
            g_t = kap * s
            h_t = g_t + kap * kap * s_kappa
            newton = -g_t / h_t
            cap = _at_poisson_boundary(y, mu_k)
        concave = h_t < 0.0
        theta = np.log(kap) + np.where(concave, newton.clip(-1.0, 1.0), np.sign(g_t))
        floor = theta <= log_min
        # at the floor with the score pointing below it, kappa is settled
        settled = floor & (kap == KAPPA_MIN) & (g_t <= 0.0)
        decrement += np.where(settled, 0.0, np.where(concave, g_t * newton, np.inf))
        kappa[live] = np.where(floor, KAPPA_MIN, np.exp(theta))

        cap |= theta >= log_cap
        kappa[live[cap]] = KAPPA_CAP
        done = ~failed & (cap | (np.abs(decrement) <= tol))
        ok[live[done]] = True
        live = live[~(done | failed)]
    return coef, mu, kappa, ok, n_iter


def _joint_fit(y: np.ndarray, design: Design) -> Tuple[np.ndarray, np.ndarray, float, bool, np.ndarray]:
    """:func:`nb_mle` of prepared counts and the means of the Poisson fit it starts from.

    Both are remembered in ``nbreserve.glm._last_joint_fit`` for the
    next call on the same data, which are the same when the counts and
    both factor indices are equal bit for bit
    (:func:`nbreserve.glm._data_key`); the fits are deterministic, so
    remembered ones are the fits a new call would give. An interior
    estimate's coefficients are also the start of ``glm.fit`` at that
    kappa; at the cap :func:`profile_kappa` gives that start after its
    refit there. Returns copies of the arrays.
    """
    key = _data_key(y, design)
    seen, fit, _ = glm._last_joint_fit
    if seen != key:
        poisson = _poisson_batch(y[None], design)
        mu_p = poisson[1][0].copy()  # the joint fit moves the means in place
        fit = (*_one_fit(_nb_mle_batch(y[None], design, poisson=poisson)), mu_p)
        coef, _, kappa, at_boundary, _ = fit
        glm._last_joint_fit = (key, fit, None if at_boundary else (kappa, coef))
    coef, mu, kappa, at_boundary, mu_p = fit
    return coef.copy(), mu.copy(), kappa, at_boundary, mu_p.copy()


def overdispersion_test(data: Sequence) -> SelectionReport:
    """Likelihood-ratio comparison of Poisson against negative binomial.

    The null (Poisson) puts kappa on the boundary of the parameter
    space, so the p-value is half a chi-square(1) tail, computed through
    the complementary error function. Equal likelihoods give p = 0.5.
    The Poisson fit is :func:`nbreserve.glm._poisson_batch`, on a
    triangle the closed-form chain-ladder, and the negative binomial fit
    is the joint fit :func:`profile_kappa` takes its estimate from,
    which starts from that Poisson fit.
    """
    y, design = _prepare(data)
    _, mu_nb, kappa, _, mu_p = _joint_fit(y, design)
    ll_p = poisson_loglik(y, mu_p)
    ll_nb = nb_loglik(y, mu_nb, kappa)

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


def maximize_adjusted_profile(data: Sequence, grid_size: int = 40) -> float:
    """Numerically maximise the adjusted profile likelihood over kappa.

    Exposed as an alternative to the closed-form :func:`bias_correct`;
    both shrink the MLE, and they agree to first order.
    """
    y, design = _prepare(data)
    profile = _ProfileCache(y, design)

    def f(theta: float) -> float:
        return _adjusted_profile(profile, math.exp(theta))

    thetas = np.linspace(math.log(KAPPA_MIN), math.log(KAPPA_CAP), grid_size)
    values = np.array([f(t) for t in thetas])
    best = int(np.argmax(values))
    if best == grid_size - 1:
        return KAPPA_CAP
    theta_hat, _ = _golden_max(f, thetas[max(best - 1, 0)], thetas[min(best + 1, grid_size - 1)])
    return math.exp(theta_hat)
