"""Dispersion estimation for the negative binomial count model.

The dispersion kappa is estimated by maximum likelihood: the joint fit
:func:`nb_mle` runs Newton iterations over the mean effects and log
kappa together, from the closed-form chain-ladder Poisson fit, and so
maximises the profile
l_p(kappa) = l(alpha_hat(kappa), beta_hat(kappa), kappa) over log kappa
in [1e-3, 1e8]. The bootstrap engine refits its replicates with the
same kernel, :func:`_nb_mle_batch`, of which :func:`nb_mle` is the
batch of one. Confidence intervals invert the likelihood-ratio
statistic at the chi-square(1) 0.95 quantile; each endpoint is
bracketed by a doubling walk from the estimate and found by Newton's
method on l_p, whose slope the envelope theorem gives from the kappa
score at the refitted means. The maximum-likelihood kappa is biased
high in small triangles because every cell carries its own mean
parameter; the default remedy is the closed-form correction
kappa * (n - p) / n, with a numerical maximiser of the Cox-Reid
adjusted profile likelihood available as an alternative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import psi

from .errors import FlatProfileError, NotConvergedError, SingularInformationError
from .glm import (
    _ETA_BOUND, _IRLS_MAX_ITER, _KAPPA_SERIES, Design, Family, _halve_steps, _irls, _NormalEquations,
    _poisson_batch, _prepare, _unit_deviance, nb_loglik, poisson_loglik,
)

KAPPA_MIN = 1e-3
KAPPA_CAP = 1e8

# chi-square(1) quantile at 0.95, used to invert the profile LRT
CHI2_1_95 = 3.841458820694124

# log-spaced profile points `nbreserve diagnose` adds to the exported curve
_GRID_SIZE = 60


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


class _ProfileCache:
    """Profile log-likelihood evaluator with warm-started refits.

    Each call refits the means at one kappa, starting from the previous
    call's coefficients (or ``warm``), and records (kappa, loglik);
    ``mu`` holds the last call's fitted means.
    """

    def __init__(self, y: np.ndarray, design: Design, warm: Optional[np.ndarray] = None):
        self.y = y
        self.design = design
        self.warm = warm
        self.mu: Optional[np.ndarray] = None
        self.evals: List[Tuple[float, float]] = []

    def __call__(self, kappa: float) -> float:
        coef, mu, _, _, converged, _ = _irls(
            self.y, self.design, Family.negbin(kappa), start=self.warm
        )
        if not converged:
            raise NotConvergedError(f"profile refit at kappa={kappa:.4g} did not converge")
        self.warm, self.mu = coef, mu
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


def _ci_endpoint(profile: _ProfileCache, theta_hat: float, target: float, bound: float) -> float:
    """Kappa between exp(theta_hat) and ``bound`` where the profile falls to ``target``.

    Walks outward from theta_hat in log-kappa steps of 1, 2, 4, ...
    until the profile drops below the target, then runs a safeguarded
    Newton iteration on the profile inside that bracket. By the envelope
    theorem the refitted means do not move l_p to first order, so its
    slope in log kappa is kappa times the kappa score at those means.
    Returns ``bound`` when the profile stays above the target up to it.
    """
    end = math.log(bound)
    side = 1.0 if end > theta_hat else -1.0
    inner, step = theta_hat, 1.0
    while True:
        theta = inner + side * step
        kappa = bound if side * (theta - end) >= 0.0 else math.exp(theta)
        theta = math.log(kappa)
        drop = profile(kappa) - target
        if drop < 0.0:
            break
        if kappa == bound:
            return bound
        inner, step = theta, 2.0 * step
    outer = theta
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
    the maximiser of the profile over log kappa in [1e-3, 1e8]. Each
    interval endpoint is where the profile falls 3.841 / 2 below its
    maximum, found by :func:`_ci_endpoint`, or the end of the search
    range if the profile stays above that level. A maximiser at the
    upper cap is reported with ``at_boundary=True`` and means the data
    are Poisson-compatible.

    ``profile_curve`` holds every profile point computed on the way;
    ``grid_size`` > 0 adds that many log-spaced points over the search
    range, for plotting. They change neither the estimate nor the
    interval.

    Raises:
        FlatProfileError: interior optimum with curvature below 1e-6 on
            the log-kappa scale, so kappa is not identified.
        NotConvergedError: the joint fit, a refit on the way to the
            interval, or the endpoint iteration did not converge.
    """
    y, design = _prepare(data)
    coef, _, kappa_hat, at_boundary = nb_mle(y, design)
    # refit at kappa_hat: at the cap nb_mle's means belong to the kappa it left
    profile = _ProfileCache(y, design, warm=coef)
    ll_hat = profile(kappa_hat)
    coef_hat = profile.warm
    theta_hat = math.log(kappa_hat)
    if not at_boundary:
        h = 0.05
        curv = (profile(math.exp(theta_hat + h)) + profile(math.exp(theta_hat - h)) - 2.0 * ll_hat) / h**2
        if curv > -1e-6:
            raise FlatProfileError(
                f"profile curvature {curv:.3g} at kappa={kappa_hat:.4g}; "
                "dispersion not identified"
            )

    target = ll_hat - 0.5 * CHI2_1_95
    lower = _ci_endpoint(profile, theta_hat, target, KAPPA_MIN)
    profile.warm = coef_hat
    upper = KAPPA_CAP if at_boundary else _ci_endpoint(profile, theta_hat, target, KAPPA_CAP)

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


# arguments from which trigamma is summed from its asymptotic series alone
_TRIGAMMA_SHIFT = 10.0

# 1 / x^(2k + 1) coefficients of that series: the Bernoulli numbers B_2 .. B_14
_TRIGAMMA_SERIES = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0)


def _trigamma(x):
    """Trigamma psi'(x) for x > 0, elementwise.

    From x = 10 on, the asymptotic series 1/x + 1/(2 x^2) + sum B_2k /
    x^(2k + 1) through B_14 is exact to rounding. Below, the recurrence
    psi'(x) = 1 / x^2 + psi'(x + 1) moves the argument to x + 10 first;
    its ten terms are one broadcast over a leading axis, added in a
    fixed order. Each element's arithmetic depends on its value alone,
    not on the shape of ``x``, so a batched solve agrees with the
    scalar one bit for bit. This is several times faster than
    ``scipy.special.polygamma(1, x)``, which evaluates a Hurwitz zeta.
    """
    x = np.asarray(x, dtype=float)
    small = x < _TRIGAMMA_SHIFT
    z = np.where(small, x + _TRIGAMMA_SHIFT, x) if small.any() else x
    inv2 = 1.0 / (z * z)
    tail = 0.0
    for c in reversed(_TRIGAMMA_SERIES):
        tail = (tail + c) * inv2
    out = np.asarray((1.0 + (0.5 + tail * z) / z) / z)
    if z is not x:
        terms = x[small] + np.arange(_TRIGAMMA_SHIFT)[:, None]
        terms *= terms
        np.divide(1.0, terms, out=terms)
        head = terms[0]
        for term in terms[1:]:
            head = head + term
        out[small] = head + out[small]
    return out


def _kappa_score_deriv(y: np.ndarray, mu: np.ndarray, kappa):
    k = np.asarray(kappa)[..., None]
    n = y.shape[-1]
    # one kernel call for the cells and kappa itself, in the last column
    tri = _trigamma(np.concatenate((y + k, k), axis=-1))
    return (
        np.sum(tri[..., :-1], axis=-1) - n * tri[..., -1]
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


def nb_mle(
    y: np.ndarray,
    design: Design,
    start: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, float, bool]:
    """Joint maximum likelihood over (mean effects, kappa).

    The fit of one triangle by :func:`_nb_mle_batch`, as a batch of one:
    joint Newton iterations over the coefficients and log kappa from
    the closed-form Poisson fit. ``start`` is used only where that
    Poisson fit needs IRLS.

    Returns (coef, mu, kappa, at_boundary).

    Raises:
        NotConvergedError: the fit failed as :func:`_nb_mle_batch`
            describes.
    """
    coef, mu, kappa, ok, _ = _nb_mle_batch(np.asarray(y, dtype=float)[None], design, start=start)
    if not ok[0]:
        raise NotConvergedError(
            f"joint NB fit failed: singular, unbounded or not converged in {_IRLS_MAX_ITER} iterations"
        )
    return coef[0], mu[0], float(kappa[0]), bool(kappa[0] == KAPPA_CAP)


def _nb_mle_batch(
    Y: np.ndarray,
    design: Design,
    start: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
    pin: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint maximum likelihood over (mean effects, kappa) for each row of ``Y``.

    All rows share ``design``; ``start``, ``mask`` and ``pin`` are as
    for :func:`nbreserve.glm._irls_batch`. A cell outside the mask must
    hold a zero count; the kappa score sees it at its limit y = mu = 0,
    where it adds nothing, so each row's kappa is that of its kept cells.

    The Poisson fit (:func:`nbreserve.glm._poisson_batch`, the
    closed-form chain-ladder where it applies) gives the means from
    which :func:`_solve_kappa_batch` takes the first kappa. From there
    each iteration takes one Newton step for the coefficients at fixed
    kappa, with the observed information, whose working weights
    mu kappa (kappa + y) / (kappa + mu)^2 stay positive, and step
    halving on the deviance; then one Newton step in log kappa at the
    new means, capped at one unit and kept in [KAPPA_MIN, KAPPA_CAP].
    Mean and dispersion are information-orthogonal in this family, so
    the two steps together converge about as fast as a full Newton
    step. A row stops when its Newton decrement, the log-likelihood
    gain the two steps predict, is at rounding level (1e-20); it stops
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
    m, X = len(Y), design.X
    coef, mu, poisson_ok = _poisson_batch(Y, design, start=start, mask=mask, pin=pin)
    kappa = np.full(m, np.nan)
    ok = np.zeros(m, dtype=bool)
    n_iter = np.zeros(m, dtype=np.int64)

    def kept(a, rows):
        return a if mask is None else a * mask[rows]

    def deviance(rows, y, mu_r, k_r):
        return 2.0 * np.sum(kept(_unit_deviance(y, mu_r, k_r), rows), axis=1)

    live = np.nonzero(poisson_ok)[0]
    kappa[live] = _solve_kappa_batch(
        Y[live], kept(mu[live], live), _moment_kappa(Y[live], mu[live], None if mask is None else mask[live])
    )
    cap = kappa >= KAPPA_CAP
    kappa[cap], ok[cap] = KAPPA_CAP, True
    live = live[~cap[live]]
    normal = _NormalEquations(X, live.size, pin)
    log_min, log_cap = math.log(KAPPA_MIN), math.log(KAPPA_CAP)

    for _ in range(_IRLS_MAX_ITER):
        if live.size == 0:
            break
        n_iter[live] += 1
        y, old, mu_l, k = Y[live], coef[live], mu[live], kappa[live][:, None]
        # Newton step for the coefficients: X^T W X delta = X^T W z, z the
        # score per unit of observed information
        Xw, A = normal.weigh(live, kept(mu_l / (k + mu_l) * (k / (k + mu_l)) * (k + y), live))
        z = (y - mu_l) / mu_l * ((k + mu_l) / (k + y))
        g = (Xw.transpose(0, 2, 1) @ z[:, :, None])[:, :, 0]
        delta = normal.solve(live, A, g)
        failed = np.isnan(delta).any(axis=1)
        decrement = np.sum(g * delta, axis=1)
        cand = old + delta
        # each cell's deviance carries a rounding error of about
        # 1e-16 (y + kappa), which near the optimum exceeds a step's gain
        slack = 1e-14 * np.sum(kept(y + k, live), axis=1)
        step, eta, _, stuck = _halve_steps(
            X, cand, old, deviance(live, y, mu_l, k) + slack, np.nonzero(~failed)[0],
            lambda rows, mu_r: deviance(live[rows], y[rows], mu_r, k[rows]),
        )
        # within that slack a Newton step near the optimum is always
        # taken; a row that takes none, or whose kept means reach the
        # clip of the linear predictor, has a likelihood rising without bound
        failed[stuck] = True
        failed[step] |= np.any(kept(np.abs(eta[step]) >= _ETA_BOUND, live[step]), axis=1)
        coef[live[step]] = cand[step]
        mu[live[step]] = np.exp(eta[step])

        # Newton step in theta = log kappa at the new means; the squares
        # of a diverging fit's means may overflow here, leaving it to fail
        mu_k, kap = kept(mu[live], live), kappa[live]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            g_t = kap * _kappa_score(y, mu_k, kap)
            h_t = g_t + kap * kap * _kappa_score_deriv(y, mu_k, kap)
            newton = -g_t / h_t
            cap = _at_poisson_boundary(y, mu_k)
        concave = h_t < 0.0
        theta = np.log(kap) + np.where(concave, np.clip(newton, -1.0, 1.0), np.sign(g_t))
        floor = theta <= log_min
        # at the floor with the score pointing below it, kappa is settled
        settled = floor & (kap == KAPPA_MIN) & (g_t <= 0.0)
        decrement += np.where(settled, 0.0, np.where(concave, g_t * newton, np.inf))
        kappa[live] = np.where(floor, KAPPA_MIN, np.exp(theta))

        cap |= theta >= log_cap
        kappa[live[cap]] = KAPPA_CAP
        done = ~failed & (cap | (np.abs(decrement) <= 1e-20))
        ok[live[done]] = True
        live = live[~(done | failed)]
    return coef, mu, kappa, ok, n_iter


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
