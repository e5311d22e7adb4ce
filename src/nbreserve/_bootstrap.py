"""Shared parametric bootstrap engine.

One replicate simulates the observed cells from the base fit, refits
the model on the synthetic triangle, then simulates the future cells
from the refitted means. The engine is family-generic so the same loop
serves Poisson, overdispersed Poisson, and negative binomial methods.

Replicate refits on synthetic data can meet factor levels whose counts
are all zero. The maximum-likelihood limit sends those level means to
zero, so the refit drops the level and pins its fitted means at zero
rather than failing; only genuine non-convergence counts as a failure.

The engine refits a batch of replicates at once on the full design.
Each replicate leaves out the cells of its dropped levels and holds
their coefficients at zero, so one batched iteration serves every drop
pattern and a replicate that drops nothing gets exactly the fit it
would get alone.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import dispersion
from ._rng import substream
from .errors import ReservingError
from .glm import Family, _irls, _irls_batch, build_design


# share of failed refits tolerated before a run is abandoned
MAX_FAILURE_FRACTION = 0.2

# most replicates refitted together in one batch; larger batches ran a
# B=5000 bootstrap a little faster but raised its peak memory by a quarter
_BATCH = 100


@dataclass(frozen=True)
class EngineSpec:
    """Everything one bootstrap replicate needs, in picklable form."""

    seed: int
    prefix: Tuple[int, ...]
    b: int
    n_ay: int
    n_dy: int
    ay_idx: np.ndarray  # 0-based, observed cells
    dy_idx: np.ndarray
    base_coef: Optional[np.ndarray]
    mu_obs: np.ndarray
    obs_tag: str  # family used to simulate observed cells
    obs_param: Optional[float]  # kappa or phi
    refit_tag: str  # poisson | odp | nb; also the family of the future draws
    correct: bool  # apply (n - p) / n to the refitted kappa
    n0: int  # base-design dimensions for the correction factor
    p0: int
    fut_ay: np.ndarray  # 0-based, future cells
    fut_dy: np.ndarray


def draw_counts(tag: str, param: Optional[float], mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one synthetic count per cell mean under the given family."""
    if tag == "poisson":
        return rng.poisson(mu)
    if tag == "nb":
        from .predictive import sample_nb

        return sample_nb(mu, param, rng)
    if tag == "odp":
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


def _levels_present(y_star: np.ndarray, spec: EngineSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Which accident and development years have a positive total, per replicate."""
    ay = y_star @ (spec.ay_idx[:, None] == np.arange(spec.n_ay)) > 0
    dy = y_star @ (spec.dy_idx[:, None] == np.arange(spec.n_dy)) > 0
    return ay, dy


def _reduced_design(spec: EngineSpec, ay_keep: np.ndarray, dy_keep: np.ndarray):
    """Design over the kept levels; returns (cells, keep_ay, keep_dy, design) or None.

    With every level kept this is the full design. None means the kept
    cells cannot identify the kept levels' effects.
    """
    keep_ay = np.nonzero(ay_keep)[0]
    keep_dy = np.nonzero(dy_keep)[0]
    cells = ay_keep[spec.ay_idx] & dy_keep[spec.dy_idx]
    if not cells.any():
        return None
    ay_new = np.searchsorted(keep_ay, spec.ay_idx[cells])
    dy_new = np.searchsorted(keep_dy, spec.dy_idx[cells])
    design = build_design(ay_new + 1, dy_new, len(keep_ay), len(keep_dy))
    if design.n < design.p:
        return None
    return cells, keep_ay, keep_dy, design


def _refit(y_star: np.ndarray, spec: EngineSpec) -> Optional[Tuple[np.ndarray, np.ndarray, Optional[float]]]:
    """Refit one replicate with the scalar fits; returns (row_eff, col_eff, dispersion).

    Row and column effects are on the log scale with dropped levels at
    -inf, so exp(row + col) gives zero means there. The dispersion slot
    holds kappa for nb refits and phi for odp refits. The engine runs
    :func:`_refit_batch`; this one-replicate form is its reference.
    """
    ay_keep, dy_keep = _levels_present(y_star[None], spec)
    reduced = _reduced_design(spec, ay_keep[0], dy_keep[0])
    if reduced is None:
        return None
    cells, keep_ay, keep_dy, design = reduced
    y_fit = y_star[cells].astype(float)
    start = spec.base_coef if cells.all() else None

    try:
        if spec.refit_tag == "nb":
            coef, _, kappa, _ = dispersion.nb_mle(y_fit, design, start=start)
            disp = dispersion.bias_correct(kappa, spec.n0, spec.p0) if spec.correct else kappa
        else:
            coef, mu, _, _, converged, _ = _irls(y_fit, design, Family.poisson(), start=start)
            if not converged:
                return None
            disp = None
            if spec.refit_tag == "odp":
                dof = design.n - design.p
                if dof <= 0:
                    return None
                disp = float(np.sum((y_fit - mu) ** 2 / mu)) / dof
    except (ReservingError, np.linalg.LinAlgError):
        return None

    row_red, col_red = _effects_from_coef(coef[None], len(keep_ay))
    row_eff = np.full(spec.n_ay, -np.inf)
    col_eff = np.full(spec.n_dy, -np.inf)
    row_eff[keep_ay] = row_red[0]
    col_eff[keep_dy] = col_red[0]
    return row_eff, col_eff, disp


def _refit_masks(spec: EngineSpec, ay_keep: np.ndarray, dy_keep: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Kept cells (m, n) and pinned coefficients (m, p) of the full design.

    A replicate keeps the cells whose accident and development years
    both have a positive total. Each dropped level's coefficient is
    pinned at zero; when a baseline level (accident year 1 or development
    year 0) is dropped, the first kept level of its factor is pinned too,
    so the intercept takes its place. What is left free is then the
    reduced design's parameterisation of the kept levels.
    """
    m = len(ay_keep)
    mask = ay_keep[:, spec.ay_idx] & dy_keep[:, spec.dy_idx]
    rows = np.arange(m)
    ay_pin, dy_pin = ~ay_keep, ~dy_keep
    ay_pin[rows, np.argmax(ay_keep, axis=1)] |= ay_pin[:, 0]
    dy_pin[rows, np.argmax(dy_keep, axis=1)] |= dy_pin[:, 0]
    pin = np.hstack((np.zeros((m, 1), dtype=bool), ay_pin[:, 1:], dy_pin[:, 1:]))
    return mask, pin


def _refit_batch(y_star: np.ndarray, spec: EngineSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refit every row of the (m, n) replicate matrix ``y_star`` as one batch.

    All rows are fitted together on the full design, each on its own
    kept cells and free coefficients (:func:`_refit_masks`), from the
    base fit's coefficients with the pinned ones at zero. Returns (ok,
    row_eff, col_eff, disp) with one row per replicate, holding what
    :func:`_refit` returns; ok is False where it returns None, and disp
    is NaN for Poisson refits. A row fails, as there, when it has fewer
    kept cells than free coefficients, when its normal equations are
    singular, or when its fit does not converge.
    """
    m = len(y_star)
    ok = np.zeros(m, dtype=bool)
    row_eff = np.full((m, spec.n_ay), -np.inf)
    col_eff = np.full((m, spec.n_dy), -np.inf)
    disp = np.full(m, np.nan)
    ay_keep, dy_keep = _levels_present(y_star, spec)
    mask, pin = _refit_masks(spec, ay_keep, dy_keep)
    n_kept = mask.sum(axis=1)
    dof = n_kept - (pin.shape[1] - pin.sum(axis=1))  # kept cells less free coefficients
    min_dof = 1 if spec.refit_tag == "odp" else 0  # the Pearson phi divides by dof
    fit = np.nonzero((n_kept > 0) & (dof >= min_dof))[0]
    if fit.size == 0:
        return ok, row_eff, col_eff, disp
    kept, pin = mask[fit], pin[fit]
    X = build_design(spec.ay_idx + 1, spec.dy_idx, spec.n_ay, spec.n_dy).X
    Y = y_star[fit].astype(float)
    if kept.all():  # nothing dropped: the plain batched fit, without the masking arithmetic
        mask = pin = None
        start = spec.base_coef
    else:
        mask = kept
        start = None if spec.base_coef is None else np.where(pin, 0.0, spec.base_coef)
    if spec.refit_tag == "nb":
        coef, _, kappa, fit_ok = dispersion._nb_mle_batch(Y, X, start=start, mask=mask, pin=pin)
        if spec.correct:
            kappa[fit_ok] = kappa[fit_ok] * (spec.n0 - spec.p0) / spec.n0
        disp[fit] = kappa
    else:
        coef, mu, fit_ok = _irls_batch(Y, X, start=start, mask=mask, pin=pin)
        if spec.refit_tag == "odp":
            disp[fit] = np.sum((Y - mu) ** 2 / mu * kept, axis=1) / dof[fit]
    row_eff[fit], col_eff[fit] = _effects_from_coef(coef, spec.n_ay)
    row_eff[~ay_keep] = -np.inf
    col_eff[~dy_keep] = -np.inf
    ok[fit] = fit_ok
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
    ok = np.zeros(hi - lo, dtype=bool)
    totals = np.zeros(hi - lo, dtype=np.int64)
    by_ay = np.zeros((hi - lo, spec.n_ay), dtype=np.int64)
    for first in range(lo, hi, _BATCH):
        rngs = [substream(spec.seed, *spec.prefix, b) for b in range(first, min(first + _BATCH, hi))]
        y_star = np.array([draw_counts(spec.obs_tag, spec.obs_param, spec.mu_obs, rng) for rng in rngs])
        fitted, row_eff, col_eff, disp = _refit_batch(y_star, spec)
        for i in np.nonzero(fitted)[0]:
            mu_fut = np.exp(row_eff[i, spec.fut_ay] + col_eff[i, spec.fut_dy])
            draws = draw_counts(spec.refit_tag, disp[i], mu_fut, rngs[i])
            slot = first - lo + i
            ok[slot] = True
            totals[slot] = draws.sum()
            np.add.at(by_ay[slot], spec.fut_ay, draws)
    return ok, totals, by_ay


def run(spec: EngineSpec, workers: int = 1) -> Tuple[np.ndarray, np.ndarray, int]:
    """Execute all replicates; returns (totals, by_ay, failures).

    Results are identical for any worker count because each replicate
    draws from its own counter-based substream.
    """
    if workers <= 1 or spec.b < 4:
        ok, totals, by_ay = _run_chunk(spec, 0, spec.b)
    else:
        bounds = np.linspace(0, spec.b, workers + 1, dtype=int)
        parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_chunk, spec, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            parts = [f.result() for f in futures]
        ok = np.concatenate([p[0] for p in parts])
        totals = np.concatenate([p[1] for p in parts])
        by_ay = np.concatenate([p[2] for p in parts])
    failures = int(spec.b - ok.sum())
    return totals[ok], by_ay[ok], failures
