"""Shared parametric bootstrap engine.

One replicate simulates the observed cells from the base fit, refits
the model on the synthetic triangle, then simulates the future cells
from the refitted means. The engine is family-generic: one
:class:`~nbreserve.glm.Family` tag (``poisson``, ``quasipoisson`` or
``negbin``) picks the law of both draws and the refit, so the same
loop serves the Poisson, overdispersed Poisson and negative binomial
methods. Everything about the triangle's cells comes from its
:class:`~nbreserve.glm.Design` and :func:`~nbreserve.glm.triangle_cells`.

Replicate refits on synthetic data can meet factor levels whose counts
are all zero. The maximum-likelihood limit sends those level means to
zero, so the refit drops the level and pins its fitted means at zero
rather than failing; only genuine non-convergence counts as a failure.
The study's base fits, also on synthetic data, share that rule
(:func:`fit_kept_levels`); a user's triangle is rejected instead.

The engine refits a batch of replicates at once on the full design.
Each replicate leaves out the cells of its dropped levels and holds
their coefficients at zero, so one batched fit serves every drop
pattern and a replicate that drops nothing gets exactly the fit it
would get alone. Poisson and overdispersed Poisson refits are the
closed-form chain-ladder (:func:`~nbreserve.glm._poisson_batch`);
negative binomial refits are the joint fit of
:func:`~nbreserve.dispersion._nb_mle_batch`, started from it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import dispersion
from ._rng import substream
from .errors import ReservingError
from .glm import Design, _poisson_batch, build_design, drop_masks, pearson_statistic, triangle_cells
from .glm import _irls  # not called here: bench/spans.py hooks _bootstrap:_irls


# share of failed refits tolerated before a run is abandoned
MAX_FAILURE_FRACTION = 0.2

# most replicates refitted together in one batch; larger batches ran a
# B=5000 bootstrap a little faster but raised its peak memory by a quarter
_BATCH = 100


@dataclass(frozen=True)
class EngineSpec:
    """Everything one bootstrap replicate needs, in picklable form.

    ``design`` is the design of the full square triangle, whose observed
    cells ``mu_obs`` and ``base_coef`` describe; the future cells are
    those :func:`~nbreserve.glm.triangle_cells` gives for its size.
    ``family`` is a ``Family`` tag: the law of the observed-cell draws,
    of the refit and of the future draws. ``param`` is the kappa
    (``negbin``) or phi (``quasipoisson``) of the observed-cell draws.
    ``correct`` applies (n - p) / n of the full ``design`` to each
    refitted kappa, whatever levels it drops; a refitted phi, like the
    study's base phi, divides by the kept cells less the free coefficients.
    """

    seed: int
    prefix: Tuple[int, ...]
    b: int
    design: Design
    base_coef: Optional[np.ndarray]
    mu_obs: np.ndarray
    family: str
    param: Optional[float]
    correct: bool


def sample_nb(mu, kappa, rng: np.random.Generator, size=None) -> np.ndarray:
    """Sample negative binomial counts through the gamma-Poisson mixture.

    Draws lambda ~ Gamma(shape=kappa, rate=kappa / mu) and then
    Poisson(lambda), which has mean mu and variance mu + mu^2 / kappa.
    ``mu`` and ``kappa`` broadcast; a scalar kappa at or above the
    search cap short-circuits to a plain Poisson draw.
    """
    mu = np.asarray(mu, dtype=float)
    if np.isscalar(kappa) or np.ndim(kappa) == 0:
        kappa = float(kappa)
        if not kappa > 0:
            raise ValueError(f"kappa must be positive, got {kappa}")
        if math.isinf(kappa) or kappa >= dispersion.KAPPA_CAP:
            return rng.poisson(mu, size=size)
        lam = rng.gamma(kappa, mu / kappa, size=size)
        return rng.poisson(lam)
    kappa = np.asarray(kappa, dtype=float)
    if not np.all(kappa > 0) or not np.all(np.isfinite(kappa)):
        raise ValueError("kappa entries must be positive and finite")
    shape = np.broadcast_shapes(mu.shape, kappa.shape) if size is None else size
    lam = rng.gamma(np.broadcast_to(kappa, shape), np.broadcast_to(mu / kappa, shape))
    return rng.poisson(lam)


def draw_counts(tag: str, param: Optional[float], mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one synthetic count per cell mean under the family ``tag``."""
    if tag == "poisson":
        return rng.poisson(mu)
    if tag == "negbin":
        return sample_nb(mu, param, rng)
    if tag == "quasipoisson":
        # integer-valued approximation with Var = phi * mu
        phi = max(param, 1e-8)
        return np.floor(phi * rng.poisson(mu / phi) + 0.5).astype(np.int64)
    raise ValueError(f"unknown sampling family {tag!r}")


def _effects_from_coef(coef: np.ndarray, n_ay: int) -> Tuple[np.ndarray, np.ndarray]:
    """Log-scale row and column effects for each row of ``coef``."""
    zero = np.zeros((len(coef), 1))
    row = coef[:, :1] + np.hstack((zero, coef[:, 1:n_ay]))
    col = np.hstack((zero, coef[:, n_ay:]))
    return row, col


def _levels_present(Y: np.ndarray, design: Design) -> Tuple[np.ndarray, np.ndarray]:
    """Which accident and development years have a positive total, per row of ``Y``."""
    ay = Y @ (design.ay_idx[:, None] == np.arange(design.n_ay)) > 0
    dy = Y @ (design.dy_idx[:, None] == np.arange(design.n_dy)) > 0
    return ay, dy


def _refit(y_star: np.ndarray, spec: EngineSpec) -> Optional[Tuple[np.ndarray, np.ndarray, Optional[float]]]:
    """Refit one replicate on its reduced design; returns (row_eff, col_eff, dispersion).

    The reduced design has the replicate's kept levels only; None means
    its kept cells cannot identify their effects. Row and column effects
    are on the log scale with dropped levels at -inf, so exp(row + col)
    gives zero means there. The dispersion slot holds kappa for negbin
    refits and phi for quasipoisson refits. A Poisson refit is the
    closed-form chain-ladder, or IRLS where that does not apply. The
    engine runs :func:`_refit_batch`; this one-replicate form is its
    reference.
    """
    d = spec.design
    ay_keep, dy_keep = (keep[0] for keep in _levels_present(y_star[None], d))
    keep_ay, keep_dy = np.nonzero(ay_keep)[0], np.nonzero(dy_keep)[0]
    cells = ay_keep[d.ay_idx] & dy_keep[d.dy_idx]
    if not cells.any():
        return None
    ay_new, dy_new = np.searchsorted(keep_ay, d.ay_idx[cells]), np.searchsorted(keep_dy, d.dy_idx[cells])
    design = build_design(ay_new + 1, dy_new, len(keep_ay), len(keep_dy))
    if design.n < design.p:
        return None
    y_fit = y_star[cells].astype(float)
    start = spec.base_coef if cells.all() else None

    try:
        if spec.family == "negbin":
            coef, _, kappa, _ = dispersion.nb_mle(y_fit, design, start=start)
            disp = dispersion.bias_correct(kappa, spec.design.n, spec.design.p) if spec.correct else kappa
        else:
            coef, mu, converged = (a[0] for a in _poisson_batch(y_fit[None], design, start=start))
            if not converged:
                return None
            disp = None
            if spec.family == "quasipoisson":
                dof = design.n - design.p
                if dof <= 0:
                    return None
                disp = float(pearson_statistic(y_fit, mu)) / dof
    except ReservingError:
        return None

    row_red, col_red = _effects_from_coef(coef[None], len(keep_ay))
    row_eff = np.full(spec.design.n_ay, -np.inf)
    col_eff = np.full(spec.design.n_dy, -np.inf)
    row_eff[keep_ay] = row_red[0]
    col_eff[keep_dy] = col_red[0]
    return row_eff, col_eff, disp


def fit_kept_levels(
    Y: np.ndarray, design: Design, family: str, start: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit every row of the count matrix ``Y`` on its levels with a positive total.

    An all-zero level's maximum-likelihood limit is zero means, so a row
    leaves out its cells and pins its coefficients at zero, in the fit
    and in ``start`` (:func:`~nbreserve.glm.drop_masks`). ``negbin`` is
    the joint fit :func:`~nbreserve.dispersion._nb_mle_batch`, the other
    families the Poisson fit :func:`~nbreserve.glm._poisson_batch`.
    Returns (ok, coef, mu, disp, ay_keep, dy_keep): mu is zero on the
    left-out cells; disp is kappa, the ``quasipoisson`` Pearson phi over
    the kept cells less the free coefficients (NaN with none left), or
    NaN. ok is False for rows that keep no cell or fewer cells than
    free coefficients, and for fits that fail.
    """
    m = len(Y)
    ok = np.zeros(m, dtype=bool)
    coef = np.full((m, design.p), np.nan)
    mu = np.zeros((m, design.n))
    disp = np.full(m, np.nan)
    ay_keep, dy_keep = _levels_present(Y, design)
    mask, pin = drop_masks(design, ay_keep, dy_keep)
    n_kept = mask.sum(axis=1)
    dof = n_kept - (pin.shape[1] - pin.sum(axis=1))  # kept cells less free coefficients
    fit = np.nonzero((n_kept > 0) & (dof >= 0))[0]
    if fit.size == 0:
        return ok, coef, mu, disp, ay_keep, dy_keep
    kept, pin = mask[fit], pin[fit]
    Y = Y[fit]
    if kept.all():  # nothing dropped: the plain batched fit, without the masking arithmetic
        mask = pin = None
    else:
        mask = kept
        start = None if start is None else np.where(pin, 0.0, start)
    if family == "negbin":
        coef[fit], mu_fit, disp[fit], ok[fit], _ = dispersion._nb_mle_batch(Y, design, start=start, mask=mask, pin=pin)
    else:
        coef[fit], mu_fit, ok[fit] = _poisson_batch(Y, design, start=start, mask=mask, pin=pin)
        if family == "quasipoisson":
            disp[fit] = pearson_statistic(Y, mu_fit, mask) / np.where(dof[fit] > 0, dof[fit], np.nan)
    mu[fit] = mu_fit * kept
    return ok, coef, mu, disp, ay_keep, dy_keep


def _refit_batch(y_star: np.ndarray, spec: EngineSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refit every row of the (m, n) replicate matrix ``y_star`` as one batch.

    The rows are one :func:`fit_kept_levels` call from the base fit's
    coefficients. Returns (ok, row_eff, col_eff, disp) with one row per
    replicate, holding what :func:`_refit` returns; ok is False where it
    returns None (also for an ODP refit with no residual degree of
    freedom), and disp is NaN for Poisson refits.
    """
    design = spec.design
    ok, coef, _, disp, ay_keep, dy_keep = fit_kept_levels(y_star.astype(float), design, spec.family, spec.base_coef)
    if spec.family == "quasipoisson":
        ok &= ~np.isnan(disp)
    if spec.correct:
        disp[ok] = disp[ok] * (design.n - design.p) / design.n
    row_eff, col_eff = _effects_from_coef(coef, design.n_ay)
    row_eff[~ay_keep] = -np.inf
    col_eff[~dy_keep] = -np.inf
    return ok, row_eff, col_eff, disp


def _run_chunk(spec: EngineSpec, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run replicates lo..hi-1; returns (ok, totals, by_ay).

    Replicates are refitted in batches of at most ``_BATCH``, which
    bounds the memory of the stacked normal equations; each batch is one
    :func:`_refit_batch` call, whatever levels its replicates drop. Each
    replicate draws its synthetic triangle and, after the refit, its
    future cells from its own substream, so its draws do not depend on
    which replicates share its batch.
    """
    n_ay = spec.design.n_ay
    _, (fut_ay, fut_dy) = triangle_cells(n_ay)
    ok = np.zeros(hi - lo, dtype=bool)
    totals = np.zeros(hi - lo, dtype=np.int64)
    by_ay = np.zeros((hi - lo, n_ay), dtype=np.int64)
    for first in range(lo, hi, _BATCH):
        rngs = [substream(spec.seed, *spec.prefix, b) for b in range(first, min(first + _BATCH, hi))]
        y_star = np.array([draw_counts(spec.family, spec.param, spec.mu_obs, rng) for rng in rngs])
        fitted, row_eff, col_eff, disp = _refit_batch(y_star, spec)
        for i in np.nonzero(fitted)[0]:
            mu_fut = np.exp(row_eff[i, fut_ay] + col_eff[i, fut_dy])
            draws = draw_counts(spec.family, disp[i], mu_fut, rngs[i])
            slot = first - lo + i
            ok[slot] = True
            totals[slot] = draws.sum()
            np.add.at(by_ay[slot], fut_ay, draws)
    return ok, totals, by_ay


def split_run(func: Callable, n: int, workers: int, *args) -> List:
    """Results of ``func(*args, lo, hi)`` over contiguous chunks of range(n), in order.

    One call covers everything when ``workers`` <= 1 or n < 4; otherwise
    the range is cut into ``workers`` near-equal chunks, each run in its
    own process.
    """
    if workers <= 1 or n < 4:
        return [func(*args, 0, n)]
    bounds = np.linspace(0, n, workers + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(func, *args, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        return [f.result() for f in futures]


def run(spec: EngineSpec, workers: int = 1) -> Tuple[np.ndarray, np.ndarray, int]:
    """Execute all replicates; returns (totals, by_ay, failures).

    Results are identical for any worker count because each replicate
    draws from its own counter-based substream.
    """
    parts = split_run(_run_chunk, spec.b, workers, spec)
    ok, totals, by_ay = (np.concatenate(p) for p in zip(*parts))
    failures = int(spec.b - ok.sum())
    return totals[ok], by_ay[ok], failures
