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
nb_corrected, stack each block of replicates into one batch. A row's fit
does not depend on the other rows of its batch, and every block of
replicates draws from its own substream, so each spec gets the draws it
would get alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import dispersion
from ._rng import substream
from .glm import Design, _chain_ladder_batch, _effects_from_coef, pearson_statistic
from .glm import _irls, build_design  # not called here: bench/spans.py hooks _bootstrap:_irls and :build_design
from .triangle import _MAX_COUNT, triangle_cells


# share of failed refits tolerated before a run is abandoned
MAX_FAILURE_FRACTION = 0.2

# replicates drawn from one generator: replicate b of a spec draws from
# the substream (seed, *prefix, b // _BLOCK)
_BLOCK = 100

# the stream contract's name, which manifests record; its first version
# drew each replicate from the substream (seed, *prefix, b)
STREAM = "philox-block100-v2"

# the largest rate numpy's Poisson sampler takes
_POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)

# the smallest phi an ODP draw scales by: a refitted phi of 0 draws at it
_PHI_FLOOR = 1e-8


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
    """Draw one synthetic count per cell mean under the family ``tag``.

    ``param`` is the kappa (``negbin``) or phi (``quasipoisson``) and
    broadcasts against ``mu``, so a column of them draws each row of a
    matrix of means at its own. A ``poisson`` draw is :func:`sample_nb`'s
    at kappa infinity, Poisson(mu) with no gamma variate.
    """
    if tag in ("poisson", "negbin"):
        return sample_nb(mu, np.inf if tag == "poisson" else param, rng)
    if tag == "quasipoisson":
        # integer-valued approximation with Var = phi * mu
        phi = np.maximum(param, _PHI_FLOOR)
        return np.floor(phi * rng.poisson(mu / phi) + 0.5).astype(np.int64)
    raise ValueError(f"unknown sampling family {tag!r}")


def _drawable(tag: str, param, mu: np.ndarray) -> np.ndarray:
    """Whether numpy's Poisson sampler takes every rate of each row of means ``mu``: mu (a ``negbin`` draw's before its gamma mixing), or mu / phi under ODP, at most ``_POISSON_MAX``."""
    with np.errstate(over="ignore"):  # a rate past float64's range is inf
        return (mu / np.maximum(param, _PHI_FLOOR) if tag == "quasipoisson" else mu).max(axis=-1) <= _POISSON_MAX


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

    The range is whole blocks: ``lo`` is a multiple of ``_BLOCK``, and so
    is ``hi`` unless it is the specs' ``b``. The specs belong to one
    triangle: they share its design and ``b``. A block of a spec draws from
    its own substream (``spec.prefix`` then the block index): one
    :func:`draw_counts` call gives all its synthetic triangles, and after
    their refits one more gives the future cells of every row, each at
    its refitted kappa or phi. A row whose refit failed, or whose future
    draw numpy cannot make (:func:`_drawable`), draws nothing, so a row's
    draws depend only on its block and never on how the replicates are
    chunked; a spec whose observed draw numpy cannot make fails every
    replicate without drawing.

    The specs of one family share their refits, as a study's nb_mle and
    nb_corrected do (its odp refits apart from poisson: it needs the
    Pearson phi and fails a refit without it): a family's block is one
    :func:`_refit_batch` call of at most k x ``_BLOCK`` rows for its k
    specs, and a study stacks at most two. Each spec with ``correct``
    applies :func:`~nbreserve.dispersion.bias_correct` of its full design
    to its own refitted kappas. A replicate with a future mean above
    2**53 - 1, the largest count the package reads, fails after its draw.
    """
    design = specs[0].design
    n_ay = design.n_ay
    _, (fut_ay, fut_dy) = triangle_cells(n_ay)
    fut_onehot = (fut_ay[:, None] == np.arange(n_ay)).astype(np.int64)
    out = [
        (np.zeros(hi - lo, dtype=bool), np.zeros(hi - lo, dtype=np.int64), np.zeros((hi - lo, n_ay), dtype=np.int64))
        for _ in specs
    ]
    drawable = [i for i, spec in enumerate(specs) if _drawable(spec.family, spec.param, spec.mu_obs)]
    for family in dict.fromkeys(specs[i].family for i in drawable):
        members = [i for i in drawable if specs[i].family == family]
        for first in range(lo, hi, _BLOCK):
            m = min(first + _BLOCK, hi) - first
            rngs = [substream(specs[i].seed, *specs[i].prefix, first // _BLOCK) for i in members]
            y_star = np.concatenate([
                draw_counts(family, specs[i].param, np.broadcast_to(specs[i].mu_obs, (m, design.n)), rng)
                for i, rng in zip(members, rngs)
            ])
            fitted, row_eff, col_eff, disp = _refit_batch(y_star, design, family)
            for k, (i, rng) in enumerate(zip(members, rngs)):
                spec, rows = specs[i], slice(k * m, (k + 1) * m)
                ok_k, disp_k = fitted[rows], disp[rows]
                if spec.correct:
                    disp_k[ok_k] = dispersion.bias_correct(disp_k[ok_k], spec.design.n, spec.design.p)
                mu_fut = np.zeros((m, fut_ay.size))
                with np.errstate(over="ignore"):  # a mean past float64's range is inf, and draws nothing
                    mu_fut[ok_k] = np.exp(row_eff[rows][ok_k][:, fut_ay] + col_eff[rows][ok_k][:, fut_dy])
                drawn = ok_k & _drawable(family, disp_k[:, None], mu_fut)
                draws = np.zeros(mu_fut.shape, dtype=np.int64)
                draws[drawn] = draw_counts(family, disp_k[drawn, None], mu_fut[drawn], rng)
                ok, totals, by_ay = out[i]
                slots = slice(first - lo, first - lo + m)
                # a future mean past the largest count the package reads fails the replicate
                ok[slots] = drawn & (mu_fut.max(axis=1) <= _MAX_COUNT)
                totals[slots] = draws.sum(axis=1)
                by_ay[slots] = draws @ fut_onehot
    return out


def _pool_size(workers: Optional[int], n: int, block: int = 1) -> int:
    """Worker processes for ``n`` items in blocks of ``block``: ``workers`` (None: every usable core), at most the usable cores and blocks.

    Below 4 blocks it is 1: they run in the calling process. The usable
    cores are those ``os.sched_getaffinity`` allows, or
    ``os.cpu_count()`` on a platform without it.
    """
    blocks = -(-n // block)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    return 1 if blocks < 4 else min(cores if workers is None else workers, cores, blocks)


def split_run(func: Callable, n: int, workers: int, *args, block: int = 1) -> List:
    """Results of ``func(*args, lo, hi)`` over contiguous chunks of range(n), in order.

    One call covers everything when the pool (:func:`_pool_size` of
    ``workers``) has one worker; otherwise the range is cut into that many
    chunks of near-equal numbers of whole blocks of ``block`` items, each
    run in its own process.
    """
    workers = _pool_size(workers, n, block)
    if workers <= 1:
        return [func(*args, 0, n)]
    # imported here: it loads multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.minimum(np.linspace(0, -(-n // block), workers + 1, dtype=int) * block, n)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(func, *args, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        return [f.result() for f in futures]


def run(spec: EngineSpec, workers: int = 1) -> Tuple[np.ndarray, np.ndarray, int]:
    """Execute all replicates; returns (totals, by_ay, failures).

    Results are identical for any worker count because the chunks are
    whole blocks and each block draws from its own counter-based
    substream.
    """
    parts = [part for (part,) in split_run(_run_group, spec.b, workers, (spec,), block=_BLOCK)]
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
