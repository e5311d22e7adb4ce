"""Simulation engine for frequentist coverage studies.

A data generating process draws full square triangles from a known
two-way count model, hands the observed half to each reserving method,
and scores the bootstrap intervals against the realised outstanding
count. Methods share the deterministic chain-ladder point estimate and
differ only in the distribution driving their bootstrap.

The observed and future cells follow :func:`nbreserve.triangle.triangle_cells`
and the engine runs in :mod:`nbreserve._bootstrap`, whose ``sample_nb``
also draws the simulated squares. Each method maps to one ``Family``
tag; the Poisson base fit serves the poisson and odp methods and the
joint NB fit serves nb_mle and nb_corrected, once per triangle, and
those two share the engine's refit batches. Like
the engine's refits, and unlike ``fit`` and ``bootstrap``, base fits
drop an all-zero level, whose means are then zero: a study triangle's
counts and design are :func:`nbreserve.glm._counts_and_design`'s,
without the checks of ``glm._prepare``, since about a fifth of
default-process triangles have such a level.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _bootstrap
from ._bootstrap import sample_nb
from ._rng import substream
from .chainladder import chain_ladder
from .dispersion import KAPPA_CAP, bias_correct
from .dispersion import nb_mle  # not called here: bench/spans.py hooks simulation:nb_mle
from .errors import ConfigError, ReservingError
from .glm import Design, _counts_and_design
from .glm import _irls  # not called here: bench/spans.py hooks simulation:_irls
from .predictive import _interval
from .triangle import _MAX_COUNT, RunOffTriangle, _observed_part, to_long, triangle_cells

SCENARIOS = ("correct", "poisson", "calendar", "varying-kappa")
METHODS = ("poisson", "odp", "nb_mle", "nb_corrected")
# each method's Family tag in the bootstrap engine, and whether it bias-corrects kappa
_METHOD_FAMILY = {"poisson": ("poisson", False), "odp": ("quasipoisson", False),
                  "nb_mle": ("negbin", False), "nb_corrected": ("negbin", True)}
KAPPA_GRID = (2.0, 3.0, 5.0, 10.0, 20.0, 50.0)
LEVELS = (0.75, 0.95)


@dataclass(frozen=True)
class DgpConfig:
    """Data generating process and study settings.

    ``true_alpha`` are log expected ultimates per accident year;
    ``true_dev_weights`` is the development pattern on the simplex
    (positive, summing to one). Scenarios:

    * ``correct``: negative binomial cells at ``kappa_true``;
    * ``poisson``: equidispersed cells, ``kappa_true`` ignored;
    * ``calendar``: negative binomial with multiplicative diagonal
      inflation at ``inflation_rate`` per calendar year;
    * ``varying-kappa``: dispersion ``kappa_by_dy[j]`` per development year.
    """

    dimension: int
    true_alpha: Tuple[float, ...]
    true_dev_weights: Tuple[float, ...]
    kappa_true: float
    scenario: str = "correct"
    inflation_rate: float = 0.05
    kappa_by_dy: Optional[Tuple[float, ...]] = None
    n_sim: int = 50
    b: int = 200
    seed: int = 0

    def __post_init__(self):
        for name, low in (("dimension", 2), ("n_sim", 1), ("b", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ConfigError(f"{name} must be at least {low}")
        reals = [("kappa_true", self.kappa_true), ("inflation_rate", self.inflation_rate)]
        reals += [("kappa_by_dy", k) for k in self.kappa_by_dy or ()]
        for name, value in reals:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if len(self.true_alpha) != self.dimension:
            raise ConfigError("true_alpha must have one entry per accident year")
        w = np.asarray(self.true_dev_weights)
        if len(w) != self.dimension or np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-8:
            raise ConfigError("true_dev_weights must be positive and sum to one")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}")
        if self.scenario != "poisson" and not 0 < self.kappa_true < math.inf:
            raise ConfigError("kappa_true must be positive and finite; the poisson scenario is the infinite-kappa limit")
        if self.scenario == "varying-kappa":
            if self.kappa_by_dy is None or len(self.kappa_by_dy) != self.dimension:
                raise ConfigError("varying-kappa needs kappa_by_dy with one entry per development year")
            if any(not 0 < k < math.inf for k in self.kappa_by_dy):
                raise ConfigError("kappa_by_dy entries must be positive and finite")
        with np.errstate(over="ignore", invalid="ignore"):
            mu = _mean_matrix(self)
        bad = mu[~((mu >= 0) & (mu <= _MAX_COUNT))]  # NaN fails both
        if bad.size:
            raise ConfigError(f"expected counts must be finite, nonnegative and at most 2**53 - 1, got {bad[0]:.3g}")


_DEFAULT_KAPPA_BY_DY = (20.0, 18.0, 15.0, 12.0, 10.0, 7.0, 5.0, 4.0, 3.0, 3.0)


def default_config(**overrides) -> DgpConfig:
    """Ten-year study defaults.

    Expected first-column counts rise linearly from 1000 to 1500 across
    accident years; the development pattern starts at (0.53, 0.24, 0.12)
    and declines geometrically thereafter, normalised to sum to one.
    Desk-scale defaults (n_sim=50, b=200) keep a study in the minutes
    range; pass larger values for publication-scale runs.
    """
    I = 10
    alpha = tuple(math.log(1000.0 + 500.0 * i / (I - 1)) for i in range(I))
    raw = [0.53, 0.24] + [0.12 * 0.5**k for k in range(I - 2)]
    w = np.array(raw[:I])
    w /= w.sum()
    base = dict(
        dimension=I,
        true_alpha=alpha,
        true_dev_weights=tuple(w),
        kappa_true=10.0,
        kappa_by_dy=_DEFAULT_KAPPA_BY_DY,
    )
    unknown = sorted(set(overrides) - {f.name for f in fields(DgpConfig)})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    base.update(overrides)
    for key in ("true_alpha", "true_dev_weights", "kappa_by_dy"):
        if isinstance(base[key], list):
            base[key] = tuple(base[key])
    try:
        return DgpConfig(**base)
    except TypeError as exc:
        raise ConfigError(f"invalid config value: {exc}") from None


def _mean_matrix(config: DgpConfig) -> np.ndarray:
    alpha = np.asarray(config.true_alpha)
    w = np.asarray(config.true_dev_weights)
    beta = np.log(w) - math.log(w[0])  # anchored so beta_0 = 0
    mu = np.exp(alpha[:, None] + beta[None, :])
    if config.scenario == "calendar":
        I = config.dimension
        expo = np.arange(I)[:, None] + np.arange(I)[None, :]
        mu = mu * (1.0 + config.inflation_rate) ** expo
    return mu


def simulate_square(config: DgpConfig, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
    """Draw full I x I count matrices from the configured process.

    Returns shape (I, I), or (size, I, I) when ``size`` is given.
    """
    mu = _mean_matrix(config)
    shape = mu.shape if size is None else (size,) + mu.shape
    if config.scenario == "poisson":
        return rng.poisson(np.broadcast_to(mu, shape))
    if config.scenario == "varying-kappa":
        kappa = np.asarray(config.kappa_by_dy)[None, :]
    else:
        kappa = np.full((1, 1), config.kappa_true)
    return sample_nb(np.broadcast_to(mu, shape), np.broadcast_to(kappa, shape), rng)


def generate(config: DgpConfig, replicate_index: int) -> Tuple[RunOffTriangle, int]:
    """Observed triangle and true outstanding count for one replicate.

    Replicate ``s`` always uses the substream (seed, 0, s), so a study
    can be reproduced replicate by replicate.
    """
    rng = substream(config.seed, 0, replicate_index)
    full = simulate_square(config, rng)
    _, future = triangle_cells(config.dimension)
    return _observed_part(full), int(full[future].sum())


@dataclass(frozen=True)
class MethodResult:
    """Aggregated study metrics for one reserving method."""

    method: str
    bias: float
    rmse: float
    coverage: Dict[float, float]
    mean_width: Dict[float, float]
    mean_kappa: Optional[float]
    at_boundary_fraction: Optional[float]
    n_failed: int
    n_completed: int


@dataclass(frozen=True)
class StudyResult:
    config: DgpConfig
    methods: Tuple[MethodResult, ...]
    levels: Tuple[float, ...] = LEVELS


def _method_base(tag: str, y: np.ndarray, design: Design):
    """Base fit shared by the study methods of one family; returns (coef, mu, disp, at_boundary) or None.

    The fit is :func:`nbreserve._bootstrap.fit_kept_levels` on one row.
    ``tag`` ``negbin`` is the joint NB fit of nb_mle and nb_corrected,
    with its kappa; ``poisson`` the Poisson fit of poisson and odp, with
    odp's phi (NaN with no residual dof) and at_boundary None. None
    marks a failed fit.
    """
    family = "negbin" if tag == "negbin" else "quasipoisson"
    ok, coef, mu, disp, _, _ = _bootstrap.fit_kept_levels(y[None], design, family)
    if not ok[0]:
        return None
    disp = float(disp[0])
    return coef[0], mu[0], disp, disp == KAPPA_CAP if tag == "negbin" else None


def _run_replicate(config: DgpConfig, s: int, methods: Sequence[str]) -> Dict[str, Optional[dict]]:
    """All methods on one simulated triangle; None marks a failed method.

    Each family is fitted once; a failed fit fails every method that
    shares it, and so does a triangle with no residual degree of freedom
    for the methods that divide by it: odp (its kept cells less free
    coefficients) and nb_corrected (the full design's n - p). The
    methods that remain bootstrap in one engine pass
    (:func:`nbreserve._bootstrap.run_group`), which stacks the refits of
    nb_mle and nb_corrected; method ``m_index`` draws replicate ``b``
    from the substream (seed, 1, s, m_index, b) all the same.
    """
    t, true_out = generate(config, s)
    out: Dict[str, Optional[dict]] = {m: None for m in methods}
    try:
        point = chain_ladder(t).total_reserve
    except ReservingError:
        return out
    y, design = _counts_and_design(to_long(t))
    bases: Dict[str, Optional[tuple]] = {}
    specs, runs = [], []

    for m_index, method in enumerate(methods):
        family, correct = _METHOD_FAMILY[method]
        base = "negbin" if family == "negbin" else "poisson"
        if base not in bases:
            bases[base] = _method_base(base, y, design)
        if bases[base] is None or (correct and design.n <= design.p):
            continue
        _, mu, disp, at_boundary = bases[base]
        if family == "quasipoisson" and math.isnan(disp):
            continue
        kappa = disp if base == "negbin" else None
        param = disp if family == "quasipoisson" else kappa
        if correct:
            param = bias_correct(kappa, design.n, design.p)
        specs.append(_bootstrap.EngineSpec(
            seed=config.seed, prefix=(1, s, m_index), b=config.b, design=design,
            mu_obs=mu, family=family, param=param, correct=correct,
        ))
        runs.append((method, kappa, at_boundary))

    for (method, kappa, at_boundary), (totals, _, failures) in zip(runs, _bootstrap.run_group(specs)):
        if failures > _bootstrap.MAX_FAILURE_FRACTION * config.b:
            continue
        rec = {"point": point, "true": true_out, "kappa": kappa, "at_boundary": at_boundary}
        for level in LEVELS:
            lo, hi = _interval(totals, level)
            rec[("cover", level)] = bool(lo <= true_out <= hi)
            rec[("width", level)] = hi - lo
        out[method] = rec
    return out


def _replicate_range(config: DgpConfig, methods: Tuple[str, ...], lo: int, hi: int) -> List[Dict]:
    return [_run_replicate(config, s, methods) for s in range(lo, hi)]


def run_study(
    config: DgpConfig,
    methods: Optional[Sequence[str]] = None,
    workers: int = 1,
) -> StudyResult:
    """Run the full coverage study.

    Per replicate: simulate a triangle, fit each method, bootstrap its
    reserve distribution, and score interval coverage and width against
    the realised outstanding count. Replicates where a method's base
    fit fails are excluded from that method's averages and counted.
    """
    methods = tuple(methods) if methods is not None else METHODS
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")

    parts = _bootstrap.split_run(_replicate_range, config.n_sim, workers, config, methods)
    records = [rec for part in parts for rec in part]

    results = []
    for method in methods:
        rows = [r[method] for r in records if r[method] is not None]
        n_failed = config.n_sim - len(rows)
        if not rows:
            results.append(
                MethodResult(method, math.nan, math.nan, {}, {}, None, None, n_failed, 0)
            )
            continue
        err = np.array([r["point"] - r["true"] for r in rows])
        kappas = [r["kappa"] for r in rows if r["kappa"] is not None]
        bounds_flags = [r["at_boundary"] for r in rows if r["at_boundary"] is not None]
        results.append(
            MethodResult(
                method=method,
                bias=float(err.mean()),
                rmse=float(np.sqrt(np.mean(err**2))),
                coverage={lv: float(np.mean([r[("cover", lv)] for r in rows])) for lv in LEVELS},
                mean_width={lv: float(np.mean([r[("width", lv)] for r in rows])) for lv in LEVELS},
                mean_kappa=float(np.mean(kappas)) if kappas else None,
                at_boundary_fraction=float(np.mean(bounds_flags)) if bounds_flags else None,
                n_failed=n_failed,
                n_completed=len(rows),
            )
        )
    return StudyResult(config=config, methods=tuple(results))


def study_csv(result: StudyResult) -> str:
    """Study metrics as CSV, one row per method."""
    config = result.config
    if config.scenario == "poisson":
        kappa_true = "inf"
    elif config.scenario == "varying-kappa":
        kappa_true = "varying"
    else:
        kappa_true = f"{config.kappa_true:g}"
    lines = ["method,kappa_true,bias,rmse,cov75,cov95,width75,width95"]
    for m in result.methods:
        lines.append(
            ",".join(
                [
                    m.method,
                    kappa_true,
                    f"{m.bias:.4f}",
                    f"{m.rmse:.4f}",
                    f"{m.coverage.get(0.75, math.nan):.4f}",
                    f"{m.coverage.get(0.95, math.nan):.4f}",
                    f"{m.mean_width.get(0.75, math.nan):.4f}",
                    f"{m.mean_width.get(0.95, math.nan):.4f}",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def study_json(result: StudyResult) -> dict:
    config = result.config
    return {
        "config": {
            "dimension": config.dimension,
            "scenario": config.scenario,
            "kappa_true": None if config.scenario == "poisson" else config.kappa_true,
            "kappa_by_dy": list(config.kappa_by_dy) if config.kappa_by_dy else None,
            "inflation_rate": config.inflation_rate,
            "n_sim": config.n_sim,
            "b": config.b,
            "seed": config.seed,
        },
        "levels": list(result.levels),
        "methods": [
            {
                "method": m.method,
                "bias": m.bias,
                "rmse": m.rmse,
                "coverage": {str(k): v for k, v in m.coverage.items()},
                "mean_width": {str(k): v for k, v in m.mean_width.items()},
                "mean_kappa": m.mean_kappa,
                "at_boundary_fraction": m.at_boundary_fraction,
                "n_failed": m.n_failed,
                "n_completed": m.n_completed,
            }
            for m in result.methods
        ],
    }
