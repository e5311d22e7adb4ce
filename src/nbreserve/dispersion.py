"""Dispersion estimation for the negative binomial count model.

The dispersion kappa is estimated by profiling the log-likelihood:
for each candidate kappa the mean structure is refitted and
l_p(kappa) = l(alpha_hat(kappa), beta_hat(kappa), kappa) is maximised
over a logarithmic grid with golden-section refinement. Confidence
intervals invert the likelihood-ratio statistic at the chi-square(1)
0.95 quantile. The maximum-likelihood kappa is biased high in small
triangles because every cell carries its own mean parameter; the
default remedy is the closed-form correction kappa * (n - p) / n, with
a numerical maximiser of the Cox-Reid adjusted profile likelihood
available as an alternative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import polygamma, psi

from .errors import FlatProfileError, NotConvergedError, SingularInformationError
from .glm import Design, Family, _irls, _irls_batch, build_design, _check_levels, nb_loglik, poisson_loglik

KAPPA_MIN = 1e-3
KAPPA_CAP = 1e8

# chi-square(1) quantile at 0.95, used to invert the profile LRT
CHI2_1_95 = 3.841458820694124

_GRID_SIZE = 60

# sweeps the joint NB alternation may take, scalar and batched
_MAX_OUTER = 50


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
    """
    if not kappa_mle > 0:
        raise ValueError(f"kappa_mle must be positive, got {kappa_mle}")
    if n_params < 0 or n_obs <= n_params:
        raise ValueError(f"need n_obs > n_params >= 0, got ({n_obs}, {n_params})")
    return kappa_mle * (n_obs - n_params) / n_obs


def _prepare(data) -> Tuple[np.ndarray, Design]:
    ay = np.array([r.ay for r in data], dtype=np.int64)
    dy = np.array([r.dy for r in data], dtype=np.int64)
    y = np.array([r.count for r in data], dtype=float)
    design = build_design(ay, dy)
    _check_levels(y, design)
    return y, design


class _ProfileCache:
    """Profile log-likelihood evaluator with warm-started refits."""

    def __init__(self, y: np.ndarray, design: Design):
        self.y = y
        self.design = design
        self.warm: Optional[np.ndarray] = None
        self.evals: List[Tuple[float, float]] = []

    def __call__(self, log_kappa: float) -> float:
        kappa = math.exp(log_kappa)
        coef, mu, _, _, converged, _ = _irls(
            self.y, self.design, Family.negbin(kappa), start=self.warm
        )
        if not converged:
            raise NotConvergedError(f"profile refit at kappa={kappa:.4g} did not converge")
        self.warm = coef
        ll = nb_loglik(self.y, mu, kappa)
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


def _bisect_root(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float = 1e-6) -> float:
    """Root of a monotone-sign-change f on [lo, hi] by bisection."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if (f_lo <= 0.0) == (f_mid <= 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def profile_kappa(data: Sequence, grid_size: int = _GRID_SIZE) -> KappaEstimate:
    """Profile-likelihood dispersion estimate with 95% interval.

    Searches log kappa over [1e-3, 1e8] on a coarse grid, refines the
    optimum by golden section, and inverts the profile LRT at 3.841 for
    the interval. A maximiser pinned at the upper cap is reported with
    ``at_boundary=True`` and means the data are Poisson-compatible.

    Raises:
        FlatProfileError: interior optimum with curvature below 1e-6 on
            the log-kappa scale, so kappa is not identified.
    """
    y, design = _prepare(data)
    profile = _ProfileCache(y, design)

    thetas = np.linspace(math.log(KAPPA_MIN), math.log(KAPPA_CAP), grid_size)
    values = np.array([profile(t) for t in thetas])
    best = int(np.argmax(values))

    at_boundary = best == grid_size - 1
    if at_boundary:
        theta_hat = thetas[-1]
        ll_hat = values[-1]
    else:
        lo = thetas[max(best - 1, 0)]
        hi = thetas[min(best + 1, grid_size - 1)]
        theta_hat, ll_hat = _golden_max(profile, lo, hi)
        h = 0.05
        curv = (profile(theta_hat + h) + profile(theta_hat - h) - 2.0 * ll_hat) / h**2
        if curv > -1e-6:
            raise FlatProfileError(
                f"profile curvature {curv:.3g} at kappa={math.exp(theta_hat):.4g}; "
                "dispersion not identified"
            )

    # exp(log(cap)) rounds away from the cap; snap it back
    kappa_hat = KAPPA_CAP if at_boundary else math.exp(theta_hat)
    target = ll_hat - 0.5 * CHI2_1_95

    def drop(theta: float) -> float:
        return profile(theta) - target

    # lower endpoint: scan the grid left of the optimum for a sign change
    lower = KAPPA_MIN
    below = np.nonzero((thetas < theta_hat) & (values < target))[0]
    if below.size:
        t_lo = thetas[below[-1]]
        lower = math.exp(_bisect_root(drop, t_lo, theta_hat, values[below[-1]] - target, ll_hat - target))

    upper = KAPPA_CAP
    if not at_boundary:
        above = np.nonzero((thetas > theta_hat) & (values < target))[0]
        if above.size:
            t_hi = thetas[above[0]]
            upper = math.exp(
                _bisect_root(lambda t: -drop(t), theta_hat, t_hi, -(ll_hat - target), -(values[above[0]] - target))
            )

    # register exact curve rows for the estimate and interval endpoints
    for point in (kappa_hat, lower, upper):
        profile(math.log(point))
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


# kappa from which the score is summed from its large-kappa expansion
_KAPPA_SERIES = 1e3


def _kappa_score(y: np.ndarray, mu: np.ndarray, kappa):
    """d/d kappa of the NB log-likelihood at fixed means.

    ``y`` and ``mu`` are one triangle's cells with a scalar ``kappa``,
    or matrices whose rows are triangles with one kappa each.

    The score is a sum of O(y / kappa) terms that cancel to
    -sum((y - mu)^2 - y) / (2 kappa^2). Summed from digamma values of
    size log kappa, it carries an absolute rounding error near 1e-13,
    which from kappa ~ 1e4 on moves the root by more than the joint
    fit's 1e-9 stop. From ``_KAPPA_SERIES`` on it is therefore summed
    from a form whose every term has the size of the result.
    """
    kappa = np.asarray(kappa, dtype=float)
    big = kappa >= _KAPPA_SERIES
    if not big.any():
        return _score_digamma(y, mu, kappa)
    if big.all():
        return _score_series(y, mu, kappa)
    out = np.empty(kappa.shape)
    out[~big] = _score_digamma(y[~big], mu[~big], kappa[~big])
    out[big] = _score_series(y[big], mu[big], kappa[big])
    return out


def _score_digamma(y: np.ndarray, mu: np.ndarray, kappa: np.ndarray):
    k = kappa[..., None]
    n = y.shape[-1]
    return (
        np.sum(psi(y + k), axis=-1) - n * psi(kappa)
        + n * np.log(kappa)
        - np.sum(np.log(k + mu), axis=-1)
        + np.sum((mu - y) / (k + mu), axis=-1)
    )


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
    return np.sum(np.log1p(u) - u + d_diff, axis=-1)


def _kappa_score_deriv(y: np.ndarray, mu: np.ndarray, kappa):
    k = np.asarray(kappa)[..., None]
    n = y.shape[-1]
    return (
        np.sum(polygamma(1, y + k), axis=-1) - n * polygamma(1, kappa)
        + n / kappa
        - np.sum(1.0 / (k + mu), axis=-1)
        - np.sum((mu - y) / (k + mu) ** 2, axis=-1)
    )


def _at_poisson_boundary(y: np.ndarray, mu: np.ndarray):
    """Whether the kappa maximiser is the cap, per triangle.

    As kappa grows the score tends to -sum((y - mu)^2 - y) / (2 kappa^2),
    so the likelihood still rises toward the cap when that sum is not
    positive. The sign of the sum decides this exactly, without summing
    a score of order 1e-14 at the cap.
    """
    return np.sum((y - mu) ** 2 - y, axis=-1) <= 0.0


def _solve_kappa(y: np.ndarray, mu: np.ndarray, kappa0: float) -> float:
    """Maximise the NB log-likelihood over kappa at fixed means.

    Safeguarded Newton iteration on log kappa within [KAPPA_MIN,
    KAPPA_CAP]; returns KAPPA_CAP at the Poisson boundary.
    """
    if _at_poisson_boundary(y, mu):
        return KAPPA_CAP
    if _kappa_score(y, mu, KAPPA_MIN) <= 0.0:
        return KAPPA_MIN
    lo, hi = math.log(KAPPA_MIN), math.log(KAPPA_CAP)
    theta = min(max(np.log(kappa0), lo), hi)
    for _ in range(100):
        kappa = np.exp(theta)
        s = _kappa_score(y, mu, kappa)
        if s > 0.0:
            lo = max(lo, theta)
        else:
            hi = min(hi, theta)
        # d l/d theta and d^2 l/d theta^2 under theta = log kappa
        g = kappa * s
        h = kappa * s + kappa * kappa * _kappa_score_deriv(y, mu, kappa)
        if h < 0.0:
            step = -g / h
            theta_new = theta + step
            if not lo < theta_new < hi:
                theta_new = 0.5 * (lo + hi)
        else:
            theta_new = 0.5 * (lo + hi)
        if abs(theta_new - theta) < 1e-10:
            theta = theta_new
            break
        theta = theta_new
    return float(np.exp(theta))


def _solve_kappa_batch(Y: np.ndarray, mu: np.ndarray, kappa0: np.ndarray) -> np.ndarray:
    """:func:`_solve_kappa` for each row of ``Y`` and ``mu`` at once.

    Every row takes the scalar iteration's steps and leaves the loop when
    it would; the scalar form stays for single fits, where it is faster.
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
        s = _kappa_score(y, m, kappa)
        rising = s > 0.0
        lo = np.where(rising, np.maximum(lo, theta), lo)
        hi = np.where(rising, hi, np.minimum(hi, theta))
        g = kappa * s
        h = kappa * s + kappa * kappa * _kappa_score_deriv(y, m, kappa)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = theta + (-g / h)
        theta_new = np.where((h < 0.0) & (lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
        settled = np.abs(theta_new - theta) < 1e-10
        theta = theta_new
        out[live[settled]] = np.exp(theta[settled])
        keep = ~settled
        live, theta, lo, hi = live[keep], theta[keep], lo[keep], hi[keep]
    out[live] = np.exp(theta)
    return out


def _moment_kappa(y: np.ndarray, mu: np.ndarray):
    """Moment starting value for kappa from the Pearson statistic, per triangle."""
    excess = np.sum(((y - mu) ** 2 - mu) / (mu * mu), axis=-1)
    with np.errstate(divide="ignore"):
        kappa = np.where(excess > 0, y.shape[-1] / excess, KAPPA_CAP)
    return np.clip(kappa, KAPPA_MIN, KAPPA_CAP)


def nb_mle(
    y: np.ndarray,
    design: Design,
    start: Optional[np.ndarray] = None,
    max_outer: int = _MAX_OUTER,
) -> Tuple[np.ndarray, np.ndarray, float, bool]:
    """Joint maximum likelihood over (mean effects, kappa).

    Alternates the IRLS mean fit at fixed kappa with the one-dimensional
    kappa score solve at fixed means; mean and dispersion parameters are
    information-orthogonal for this family, so alternation converges in
    a handful of sweeps to the same optimum as the grid profile search.

    Returns (coef, mu, kappa, at_boundary).
    """
    coef, mu, _, _, converged, _ = _irls(y, design, Family.poisson(), start=start)
    if not converged:
        raise NotConvergedError("Poisson stage of the joint fit did not converge")

    kappa = float(_moment_kappa(y, mu))
    for _ in range(max_outer):
        kappa_new = _solve_kappa(y, mu, kappa)
        if kappa_new >= KAPPA_CAP:
            return coef, mu, KAPPA_CAP, True
        coef, mu, _, _, converged, _ = _irls(y, design, Family.negbin(kappa_new), start=coef)
        if not converged:
            raise NotConvergedError("mean refit in the joint NB fit did not converge")
        if abs(np.log(kappa_new) - np.log(kappa)) < 1e-9:
            return coef, mu, kappa_new, False
        kappa = kappa_new
    raise NotConvergedError(f"joint NB fit did not settle in {max_outer} sweeps")


def _nb_mle_batch(
    Y: np.ndarray,
    X: np.ndarray,
    start: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`nb_mle` for each row of the count matrix ``Y`` at once.

    All rows share the design matrix ``X``; ``start`` is as for
    :func:`nbreserve.glm._irls_batch`. Each row runs its own alternation
    and leaves it when it settles, reaches the cap or fails.

    Returns (coef, mu, kappa, ok); ok is False for rows where the
    scalar fit would raise.
    """
    coef, mu, poisson_ok = _irls_batch(Y, X, start=start)
    kappa = np.full(len(Y), np.nan)
    ok = np.zeros(len(Y), dtype=bool)
    live = np.nonzero(poisson_ok)[0]
    prev = _moment_kappa(Y[live], mu[live])
    for _ in range(_MAX_OUTER):
        if live.size == 0:
            break
        new = _solve_kappa_batch(Y[live], mu[live], prev)
        capped = new >= KAPPA_CAP
        kappa[live[capped]] = KAPPA_CAP
        ok[live[capped]] = True
        live, new, prev = live[~capped], new[~capped], prev[~capped]
        c, m, converged = _irls_batch(Y[live], X, kappa=new, start=coef[live])
        coef[live], mu[live] = c, m
        settled = converged & (np.abs(np.log(new) - np.log(prev)) < 1e-9)
        kappa[live[settled]] = new[settled]
        ok[live[settled]] = True
        keep = converged & ~settled
        live, prev = live[keep], new[keep]
    return coef, mu, kappa, ok


def overdispersion_test(data: Sequence) -> SelectionReport:
    """Likelihood-ratio comparison of Poisson against negative binomial.

    The null (Poisson) puts kappa on the boundary of the parameter
    space, so the p-value is half a chi-square(1) tail, computed through
    the complementary error function. Equal likelihoods give p = 0.5.
    """
    y, design = _prepare(data)
    _, mu_p, _, _, converged, _ = _irls(y, design, Family.poisson())
    if not converged:
        raise NotConvergedError("Poisson fit did not converge")
    ll_p = poisson_loglik(y, mu_p)
    _, mu_nb, kappa, _ = nb_mle(y, design)
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
    return _adjusted_profile(y, design, kappa, _ProfileCache(y, design))


def _adjusted_profile(y: np.ndarray, design: Design, kappa: float, profile: _ProfileCache) -> float:
    ll = profile(math.log(kappa))
    family = Family.negbin(kappa)
    coef, mu, _, _, _, _ = _irls(y, design, family, start=profile.warm)
    w = family.working_weight(mu)
    info = (design.X * w[:, None]).T @ design.X
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
        return _adjusted_profile(y, design, math.exp(theta), profile)

    thetas = np.linspace(math.log(KAPPA_MIN), math.log(KAPPA_CAP), grid_size)
    values = np.array([f(t) for t in thetas])
    best = int(np.argmax(values))
    if best == grid_size - 1:
        return KAPPA_CAP
    theta_hat, _ = _golden_max(f, thetas[max(best - 1, 0)], thetas[min(best + 1, grid_size - 1)])
    return math.exp(theta_hat)
