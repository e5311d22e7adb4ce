"""Predictive reserve distributions via parametric bootstrap.

The bootstrap propagates both estimation and process error: each
replicate resimulates the observed triangle from the fitted negative
binomial law, refits the model (re-estimating and re-correcting the
dispersion), and then simulates the future cells from the refitted
parameters. Reserve draws are sums over future cells; zero draws are
legitimate outcomes for thin accident years and are retained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import _bootstrap
from ._bootstrap import sample_nb
from .chainladder import chain_ladder
from .dispersion import _joint_fit, _nb_variance, bias_correct
from .dispersion import nb_mle  # not called here: bench/spans.py hooks predictive:nb_mle
from .errors import BaseFitFailedError, ExcessiveFailuresError, ReservingError, TooFewDrawsError
from .glm import ModelFit, _prepare
from .triangle import RunOffTriangle, to_long, triangle_cells

_MIN_DRAWS = 100


@dataclass(frozen=True)
class CellPrediction:
    """Plug-in predictive law for one future cell."""

    ay: int
    dy: int
    mean: float
    variance: float
    kappa: float

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return sample_nb(self.mean, self.kappa, rng, size=size)


def plugin_predict(fit: ModelFit, kappa: float) -> List[CellPrediction]:
    """Predictive handles for every future cell of a fitted triangle.

    Each cell's variance is :func:`~nbreserve.dispersion._nb_variance`:
    ``kappa`` at or above the search cap, infinity included, is the
    Poisson limit, where the variance equals the mean, as in sampling.
    """
    _, (ay, dy) = triangle_cells(fit.n_ay)
    out = []
    for i, j in zip(ay.tolist(), dy.tolist()):
        mu = fit.mu_at(i + 1, j)
        out.append(CellPrediction(ay=i + 1, dy=j, mean=mu, variance=_nb_variance(mu, kappa), kappa=kappa))
    return out


@dataclass(frozen=True)
class ReserveDistribution:
    """Bootstrap reserve draws plus the deterministic point estimates."""

    draws_total: np.ndarray
    draws_by_ay: Dict[int, np.ndarray]
    b_requested: int
    b_effective: int
    refit_failures: int
    kappa_mle: float
    kappa_adj: float
    kappa_used: float
    corrected: bool
    point_total: float
    point_by_ay: np.ndarray
    origin_label: Optional[object] = None


@dataclass(frozen=True)
class IntervalSummary:
    """Equal-tailed predictive interval at one level."""

    level: float
    lower: float
    upper: float
    point: float
    cv_percent: float


def bootstrap(
    t: RunOffTriangle,
    b: int = 5000,
    correct: bool = True,
    seed: int = 0,
    workers: int = 1,
) -> ReserveDistribution:
    """Parametric bootstrap of the reserve distribution.

    Fits the negative binomial chain-ladder model, corrects the
    dispersion (unless ``correct=False``), and runs ``b`` replicates of
    simulate-observed / refit / simulate-future. Replicates whose refit
    genuinely fails are dropped and counted. The base fit is the
    remembered joint fit (:func:`nbreserve.dispersion._joint_fit`), so a
    repeated bootstrap of one triangle, or one after
    :func:`nbreserve.dispersion.profile_kappa` on its records, reads it
    and does not fit again; the fit depends on the counts alone.

    Raises:
        BaseFitFailedError: the base fit or its kappa's correction failed, as its ``__cause__`` says.
        ExcessiveFailuresError: more than 20% of replicates failed.
    """
    if b < 1:
        raise ValueError("b must be at least 1")
    records = to_long(t)
    try:
        y, design = _prepare(records)
        _, mu, kappa_mle, _ = _joint_fit(y, design)[:4]
        kappa_adj = bias_correct(kappa_mle, design.n, design.p)
    except ReservingError as exc:
        raise BaseFitFailedError(f"base negative binomial fit failed: {exc}") from exc
    kappa_used = kappa_adj if correct else kappa_mle

    spec = _bootstrap.EngineSpec(
        seed=seed,
        prefix=(),
        b=b,
        design=design,
        mu_obs=mu,
        family="negbin",
        param=kappa_used,
        correct=correct,
    )
    totals, by_ay, failures = _bootstrap.run(spec, workers=workers)
    if failures > _bootstrap.MAX_FAILURE_FRACTION * b:
        raise ExcessiveFailuresError(
            f"{failures} of {b} bootstrap refits failed (more than {_bootstrap.MAX_FAILURE_FRACTION:.0%})"
        )

    cl = chain_ladder(t)
    return ReserveDistribution(
        draws_total=totals,
        draws_by_ay={i: by_ay[:, i - 1] for i in range(2, t.dimension + 1)},
        b_requested=b,
        b_effective=int(totals.size),
        refit_failures=failures,
        kappa_mle=kappa_mle,
        kappa_adj=kappa_adj,
        kappa_used=kappa_used,
        corrected=correct,
        point_total=cl.total_reserve,
        point_by_ay=cl.reserves,
        origin_label=t.origin_label,
    )


def _interval_ends(draws: np.ndarray, levels: Sequence[float]) -> np.ndarray:
    """Equal-tailed ends at each level along the last axis of ``draws``: shape (len(levels), 2) + draws.shape[:-1].

    Both tails of every level come from one ``np.quantile`` call, its linear interpolation of the order
    statistics. ValueError unless each level is inside (0, 1).
    """
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be inside (0, 1), got {level}")
    tails = np.quantile(draws, [p for lv in levels for p in ((1.0 - lv) / 2.0, (1.0 + lv) / 2.0)], axis=-1)
    return tails.reshape((len(levels), 2) + tails.shape[1:])


def _level_set(levels: Sequence[float]) -> List[float]:
    """The levels sorted, each once: a repeated level is one level."""
    return sorted(set(levels))


def summary_rows(d: ReserveDistribution, levels: Sequence[float]) -> List[List[IntervalSummary]]:
    """Per level of :func:`_level_set`: one row per accident year with future cells, then the total.

    One :func:`_interval_ends`, mean and ``std(ddof=1)`` of the (n_ay + 1, B)
    draw stack give every row, row by row the bits of the same calls on each draw array.
    """
    if d.b_effective < _MIN_DRAWS:
        raise TooFewDrawsError(
            f"{d.b_effective} effective draws; at least {_MIN_DRAWS} needed for stable quantiles"
        )
    levels = _level_set(levels)
    years = sorted(d.draws_by_ay)
    stack = np.array([d.draws_by_ay[i] for i in years] + [d.draws_total])
    ends = _interval_ends(stack, levels).tolist()
    points = [float(d.point_by_ay[i - 1]) for i in years] + [d.point_total]
    cvs = [
        0.0 if mean == 0.0 else 100.0 * sd / mean
        for mean, sd in zip(stack.mean(axis=1).tolist(), stack.std(axis=1, ddof=1).tolist())
    ]
    return [
        [
            IntervalSummary(level=level, lower=lo, upper=hi, point=point, cv_percent=cv)
            for lo, hi, point, cv in zip(*ends_k, points, cvs)
        ]
        for level, ends_k in zip(levels, ends)
    ]


def summarize(d: ReserveDistribution, levels: Sequence[float] = (0.95,)) -> List[IntervalSummary]:
    """Equal-tailed intervals of the total reserve at each level, sorted, a repeated level once.

    Intervals at nested levels nest because the quantile rule is
    monotone in the level.
    """
    return [rows[-1] for rows in summary_rows(d, levels)]


def ay_summary(d: ReserveDistribution, level: float = 0.95) -> List[IntervalSummary]:
    """Per-accident-year intervals, one row per year with future cells."""
    return summary_rows(d, (level,))[0][:-1]


def summary_json(d: ReserveDistribution, levels: Sequence[float] = (0.95,)) -> dict:
    """JSON-ready summary with the schema used by the command line tools."""
    return _summary_payload(d, summarize(d, levels))


def _summary_payload(d: ReserveDistribution, intervals: Sequence[IntervalSummary]) -> dict:
    """:func:`summary_json` from the total's intervals, one per sorted level."""
    return {
        "point": d.point_total,
        "levels": [{"level": s.level, "lower": s.lower, "upper": s.upper} for s in intervals],
        "cv_percent": intervals[0].cv_percent if intervals else None,
        "b_effective": d.b_effective,
        "refit_failures": d.refit_failures,
        "kappa_mle": d.kappa_mle,
        "kappa_adj": d.kappa_adj,
    }


def draws_csv(d: ReserveDistribution) -> str:
    """Single-column CSV of the total reserve draws."""
    lines = ["total"]
    lines.extend(str(int(v)) for v in d.draws_total)
    return "\n".join(lines) + "\n"
