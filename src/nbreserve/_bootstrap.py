"""Shared parametric bootstrap engine.

One replicate simulates the observed cells from the base fit, refits
the model on the synthetic triangle, then simulates the future cells
from the refitted means. The engine is family-generic: one
:class:`~nbreserve.glm.Family` tag (``poisson``, ``quasipoisson`` or
``negbin``) picks the law of both draws and the refit, so the same
loop serves the Poisson, overdispersed Poisson and negative binomial
methods. Everything about the triangle's cells comes from its
:class:`~nbreserve.glm.Design` and :func:`~nbreserve.triangle.triangle_cells`.

Replicate refits on synthetic data can meet factor levels whose counts
are all zero. The maximum-likelihood limit sends those level means to
zero, so the refit drops the level and pins its fitted means at zero
rather than failing; only a refit with no maximum or no convergence fails.
The study's base fits, also on synthetic data, share that rule
(:func:`fit_kept_levels`); a user's triangle is rejected instead.

The engine refits a batch of replicates at once on the full design.
Poisson and overdispersed Poisson refits are the chain-ladder in closed
form (:func:`~nbreserve.glm._chain_ladder_batch`), which decides the
levels each replicate keeps and fits them exactly when their maximum
exists; the others fail. Negative binomial refits are the joint fit of
:func:`~nbreserve.dispersion._nb_mle_batch`, started from that Poisson
fit, which leaves out the cells of each replicate's dropped levels and
holds their coefficients at zero, so one batched fit serves every drop
pattern and a replicate that drops nothing gets exactly the fit it
would get alone. A refit depends on the replicate's counts, the
design and the family alone.

One engine pass serves every spec of one triangle (:func:`run_group`):
specs that refit the same family, such as a study's nb_mle and
nb_corrected, stack their replicates into one batch. A row's fit does
not depend on the other rows of its batch, and every replicate draws
from its own substream, so each spec gets the draws it would get alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import dispersion
from ._rng import substreams
from ._rng import substream  # not called here: bench/spans.py hooks _bootstrap:substream
from .glm import Design, _chain_ladder_batch, _effects_from_coef, pearson_statistic
from .glm import _irls, build_design  # not called here: bench/spans.py hooks _bootstrap:_irls and :build_design
from .triangle import _MAX_COUNT, triangle_cells


# share of failed refits tolerated before a run is abandoned
MAX_FAILURE_FRACTION = 0.2

# most replicates refitted together in one batch; larger batches ran a
# B=5000 bootstrap a little faster but raised its peak memory by a quarter
_BATCH = 100


@dataclass(frozen=True)
class EngineSpec:
    """Everything one bootstrap replicate needs, in picklable form.

    ``design`` is the design of the full square triangle, whose observed
    cells have the base fit's means ``mu_obs``; the future cells are
    those :func:`~nbreserve.triangle.triangle_cells` gives for its size.
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
    mu_obs: np.ndarray
    family: str
    param: Optional[float]
    correct: bool


def sample_nb(mu, kappa, rng: np.random.Generator, size=None) -> np.ndarray:
    """Sample negative binomial counts through the gamma-Poisson mixture.

    Draws lambda ~ Gamma(shape=kappa, rate=kappa / mu) and then
    Poisson(lambda), which has mean mu and variance mu + mu^2 / kappa.
    ``mu`` and ``kappa`` broadcast. A cell whose kappa is at or above the
    search cap, infinity included, draws Poisson(mu) and no gamma variate,
    so an array of such kappas draws bit for bit what one such scalar draws.

    Lambda is ``standard_gamma(kappa) * (mu / kappa)``: numpy draws
    ``Generator.gamma(kappa, scale)`` as ``scale * standard_gamma(kappa)``,
    cell by cell in the same stream order, so the variates are bit for
    bit those of ``gamma`` without its per-call cost on an array scale.
    """
    mu = np.asarray(mu, dtype=float)
    if np.isscalar(kappa) or np.ndim(kappa) == 0:
        kappa = float(kappa)
        if not kappa > 0:
            raise ValueError(f"kappa must be positive, got {kappa}")
        if kappa >= dispersion.KAPPA_CAP:
            return rng.poisson(mu, size=size)
        scale = mu / kappa
        if size is not None:  # a size that mu does not broadcast to raises, as in gamma
            scale = np.broadcast_to(scale, size)
        return rng.poisson(rng.standard_gamma(kappa, size=scale.shape) * scale)
    kappa = np.asarray(kappa, dtype=float)
    if not np.all(kappa > 0):  # NaN fails too
        raise ValueError("kappa entries must be positive")
    shape = np.broadcast_shapes(mu.shape, kappa.shape) if size is None else size
    kappa, lam = np.broadcast_to(kappa, shape), np.array(np.broadcast_to(mu, shape))
    gamma = kappa < dispersion.KAPPA_CAP  # the cells that are not Poisson(mu), in stream order
    lam[gamma] = rng.standard_gamma(kappa[gamma]) * (lam[gamma] / kappa[gamma])
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


def fit_kept_levels(
    Y: np.ndarray, design: Design, family: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit every row of the count matrix ``Y`` on its levels with a positive total.

    One chain-ladder (:func:`~nbreserve.glm._chain_ladder_batch`) gives
    each row's kept levels and its Poisson fit, the fit of every family
    but ``negbin``: an all-zero level's maximum-likelihood limit is zero
    means, so a row leaves out its cells. ``negbin`` is the joint fit
    :func:`~nbreserve.dispersion._nb_mle_batch` started from it.
    Returns (ok, coef, mu, disp, ay_keep, dy_keep): mu is zero on the
    left-out cells; disp is kappa, the ``quasipoisson`` Pearson phi over
    the kept cells less the free coefficients, one per kept level less
    one (NaN with none left), or NaN. ok is False for rows that keep no
    cell and for fits that fail, as with no finite maximum. On a
    staircase, as every caller's design is, a row's kept cells are never
    fewer than its free coefficients.
    """
    poisson = _chain_ladder_batch(Y, design)
    ay_keep, dy_keep = poisson[3:]
    kept = ay_keep[:, design.ay_idx] & dy_keep[:, design.dy_idx]
    disp = np.full(len(Y), np.nan)
    if family == "negbin":
        coef, mu, disp, ok, _ = dispersion._nb_mle_batch(Y, design, poisson=poisson)
    else:
        coef, mu, ok = poisson[:3]
        if family == "quasipoisson":
            dof = kept.sum(axis=1) - (ay_keep.sum(axis=1) + dy_keep.sum(axis=1) - 1)
            disp = pearson_statistic(Y, mu, kept) / np.where(dof > 0, dof, np.nan)
    return ok, coef, np.where(kept, mu, 0.0), disp, ay_keep, dy_keep


def _refit_batch(y_star: np.ndarray, design: Design, family: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refit every row of the (m, n) replicate matrix ``y_star`` as one batch.

    The rows are one :func:`fit_kept_levels` call. Returns (ok, row_eff,
    col_eff, disp) with one row per replicate: row and column effects on
    the log scale with dropped levels at -inf, so exp(row + col) gives
    zero means there, and the refitted kappa (``negbin``) or phi
    (``quasipoisson``) without the bias correction
    (:func:`~nbreserve.dispersion.bias_correct`), NaN for Poisson refits.
    ok is False for a row that keeps no level, whose refit fails, or
    whose ODP refit has no residual degree of freedom. The tests check
    each row against a refit of that replicate alone on the design of
    its kept levels (``tests/conftest.py``).
    """
    ok, coef, _, disp, ay_keep, dy_keep = fit_kept_levels(y_star.astype(float), design, family)
    if family == "quasipoisson":
        ok &= ~np.isnan(disp)
    row_eff, col_eff = _effects_from_coef(coef, design.n_ay)
    row_eff[~ay_keep] = -np.inf
    col_eff[~dy_keep] = -np.inf
    return ok, row_eff, col_eff, disp


_refit = _refit_batch  # not called here: bench/spans.py hooks _bootstrap:_refit


def _run_group(specs: Sequence[EngineSpec], lo: int, hi: int) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run replicates lo..hi-1 of every spec; returns one (ok, totals, by_ay) per spec.

    The specs belong to one triangle: they share its design. The specs of
    one family share their refits, as a study's nb_mle and nb_corrected
    do (its odp refits apart from poisson: it needs the Pearson phi and
    fails a refit without it). A family's batches take ``_BATCH // k``
    replicates from each of its k specs, so each batch is one
    :func:`_refit_batch` call of at most ``_BATCH`` rows, which bounds the
    memory of the stacked normal equations, whatever levels its
    replicates drop. Each spec with ``correct`` applies
    :func:`~nbreserve.dispersion.bias_correct` of its full design to its
    own refitted kappas. A replicate draws its synthetic triangle
    and, after the refit, its future cells from its own substream
    (``spec.prefix`` then the replicate index), so its draws do not
    depend on which replicates or specs share its batch. The substreams
    of a window are keyed in bulk (:func:`substreams`), and a batch's
    future means and totals by accident year are computed once for all
    its replicates. A replicate with a future mean above 2**53 - 1, the
    largest count the package reads, fails.
    """
    n_ay = specs[0].design.n_ay
    _, (fut_ay, fut_dy) = triangle_cells(n_ay)
    fut_onehot = (fut_ay[:, None] == np.arange(n_ay)).astype(np.int64)
    out = [
        (np.zeros(hi - lo, dtype=bool), np.zeros(hi - lo, dtype=np.int64), np.zeros((hi - lo, n_ay), dtype=np.int64))
        for _ in specs
    ]
    for family in dict.fromkeys(spec.family for spec in specs):
        members = [i for i, spec in enumerate(specs) if spec.family == family]
        window = max(1, _BATCH // len(members))
        for first in range(lo, hi, window):
            m = min(first + window, hi) - first
            rngs = [substreams(specs[i].seed, specs[i].prefix, first, first + m) for i in members]
            y_star = np.array(
                [draw_counts(specs[i].family, specs[i].param, specs[i].mu_obs, rng) for i, r in zip(members, rngs) for rng in r]
            )
            fitted, row_eff, col_eff, disp = _refit_batch(y_star, specs[0].design, family)
            for k, i in enumerate(members):
                spec, rows = specs[i], slice(k * m, (k + 1) * m)
                ok_k, disp_k = fitted[rows], disp[rows]
                if spec.correct:
                    disp_k[ok_k] = dispersion.bias_correct(disp_k[ok_k], spec.design.n, spec.design.p)
                idx = np.nonzero(ok_k)[0]
                with np.errstate(over="ignore"):  # a mean past float64's range is inf, and fails below
                    mu_fut = np.exp(row_eff[rows][idx][:, fut_ay] + col_eff[rows][idx][:, fut_dy])
                # the sampler's bound: a refit whose future means exceed the largest
                # count the package reads fails, though its maximum is finite;
                # numpy's Poisson sampler refuses means above about 9.2e18
                bounded = mu_fut.max(axis=1, initial=0.0) <= _MAX_COUNT
                idx, mu_fut = idx[bounded], mu_fut[bounded]
                draws = np.empty(mu_fut.shape, dtype=np.int64)
                for j, i_row in enumerate(idx):
                    draws[j] = draw_counts(spec.family, disp_k[i_row], mu_fut[j], rngs[k][i_row])
                ok, totals, by_ay = out[i]
                slots = first - lo + idx
                ok[slots] = True
                totals[slots] = draws.sum(axis=1)
                by_ay[slots] = draws @ fut_onehot
    return out


def _pool_size(workers: Optional[int], n: int) -> int:
    """Worker processes for ``n`` items: ``workers`` (None: every usable core), at most the usable cores and n.

    Below 4 items it is 1: they run in the calling process. The usable
    cores are those ``os.sched_getaffinity`` allows, or
    ``os.cpu_count()`` on a platform without it.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    return 1 if n < 4 else min(cores if workers is None else workers, cores, n)


def split_run(func: Callable, n: int, workers: int, *args) -> List:
    """Results of ``func(*args, lo, hi)`` over contiguous chunks of range(n), in order.

    One call covers everything when the pool (:func:`_pool_size` of
    ``workers``) has one worker; otherwise the range is cut into that many
    near-equal chunks, each run in its own process.
    """
    workers = _pool_size(workers, n)
    if workers <= 1:
        return [func(*args, 0, n)]
    # imported here: it loads multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.linspace(0, n, workers + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(func, *args, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        return [f.result() for f in futures]


def run(spec: EngineSpec, workers: int = 1) -> Tuple[np.ndarray, np.ndarray, int]:
    """Execute all replicates; returns (totals, by_ay, failures).

    Results are identical for any worker count because each replicate
    draws from its own counter-based substream.
    """
    parts = [part for (part,) in split_run(_run_group, spec.b, workers, (spec,))]
    return _result(*(np.concatenate(p) for p in zip(*parts)))


def run_group(specs: Sequence[EngineSpec]) -> List[Tuple[np.ndarray, np.ndarray, int]]:
    """Execute all replicates of every spec of one triangle in one pass; ``run``'s result per spec.

    The specs share the design and the replicate count ``b``. Each spec
    gets the result ``run`` gives it alone (see :func:`_run_group`).
    """
    return [_result(*part) for part in _run_group(specs, 0, specs[0].b)] if specs else []


def _result(ok: np.ndarray, totals: np.ndarray, by_ay: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """(totals, by_ay, failures) of the replicates that completed."""
    return totals[ok], by_ay[ok], int(ok.size - ok.sum())
