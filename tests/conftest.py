import math

import numpy as np
import pytest

from nbreserve import RunOffTriangle, australian_bodily_injury, dispersion, taylor_ashe
from nbreserve.dispersion import KAPPA_CAP, KAPPA_MIN
from nbreserve.errors import ReservingError
from nbreserve.glm import _chain_ladder_batch, _effects_from_coef, build_design, pearson_statistic


# quasi-separated triangles: a year whose counts sit in a lone cell
# that no other year shares, so no strictly positive table has the
# margins and the likelihood has no finite maximum. In the 5 x 5 it is
# accident year 1's count in development year 4; in the 8 x 8,
# development year 0's in the last accident year
QUASI_SEPARATED = {
    "5x5": [[0, 0, 0, 0, 1], [2, 0, 4, 5], [3, 0, 1], [3, 3], [1]],
    "8x8": [[0, 46, 20, 2, 2, 1, 77, 6], [0, 28, 0, 0, 0, 1, 14], [0, 42, 20, 0, 0, 1], [0, 31, 7, 0, 1],
            [0, 27, 11, 1], [0, 29, 9], [0, 16], [1]],
}


@pytest.fixture(scope="session")
def australian():
    return australian_bodily_injury()


@pytest.fixture(scope="session")
def taylor():
    return taylor_ashe()


def random_triangle(rng: np.random.Generator, dimension: int) -> RunOffTriangle:
    """Draw a run-off triangle from a random two-way Poisson model.

    Row totals around exp(5..7) keep every column sum positive with
    overwhelming probability, which the chain-ladder factors require.
    """
    alpha = rng.uniform(5.0, 7.0, size=dimension)
    raw = rng.uniform(0.5, 2.0, size=dimension)
    weights = raw / raw.sum()
    rows = []
    for i in range(1, dimension + 1):
        mu = np.exp(alpha[i - 1]) * weights[: dimension - i + 1]
        rows.append(rng.poisson(mu).tolist())
    return RunOffTriangle(rows)


@pytest.fixture
def make_triangle():
    return random_triangle


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool with a recorder that runs each chunk inline; returns each pool's max_workers.

    No process starts, whatever size the code asks for.
    """
    import concurrent.futures

    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, func, *args):
            future = concurrent.futures.Future()
            future.set_result(func(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return sizes


def kept_levels(Y: np.ndarray, design):
    """Each row's accident and development years with a positive ``np.bincount`` total, (m, n_ay) and (m, n_dy).

    The package decides the kept levels in one place, the chain-ladder
    (``glm._chain_ladder_batch``); this is the tests' independent rule.
    """
    def positive(idx, n):
        return np.array([np.bincount(idx, weights=y, minlength=n) > 0 for y in Y]).reshape(len(Y), n)

    return positive(design.ay_idx, design.n_ay), positive(design.dy_idx, design.n_dy)


def drop_pattern(Y: np.ndarray, design):
    """Kept cells (m, n) and held coefficients (m, p) of each row of ``Y``, the tests' statement of the rule.

    A level is dropped when its total in the row is zero, and a cell is
    kept when both of its levels are. A row holds at zero the
    coefficient of each dropped level and, where a factor's baseline
    (accident year 1, development year 0) is dropped, that of the
    factor's first kept level, which takes the baseline's place. The
    intercept is never held.
    """
    ay_keep, dy_keep = kept_levels(Y, design)
    mask = ay_keep[:, design.ay_idx] & dy_keep[:, design.dy_idx]

    def held(keep):
        hold = ~keep
        for r in range(len(keep)):
            if not keep[r, 0]:
                hold[r, np.nonzero(keep[r])[0][:1]] = True
        return hold[:, 1:]

    pin = np.concatenate((np.zeros((len(Y), 1), dtype=bool), held(ay_keep), held(dy_keep)), axis=1)
    return mask, pin


def positive_table_exists(y: np.ndarray, design) -> bool:
    """Whether a strictly positive table on the kept cells of ``y`` has its margins.

    Maximises t, at most 1, subject to T >= t over tables T with the
    kept levels' totals. The margins' constraints are those of a
    bipartite graph, so the optimum is a ratio of integers whose
    denominator is at most the n kept cells: a positive one is at least
    1 / n.
    """
    from scipy.optimize import linprog

    ay_keep, dy_keep = kept_levels(y[None], design)
    cells, kept = kept_design(design, ay_keep[0], dy_keep[0])
    n = kept.n
    a_eq = np.hstack((kept.X.T, np.zeros((kept.p, 1))))
    a_ub = np.hstack((-np.eye(n), np.ones((n, 1))))
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=kept.X.T @ y[cells],
                  bounds=[(0, None)] * n + [(0, 1)], method="highs")
    assert res.status == 0
    return -res.fun > 0.5 / n


# One-row references for what the package computes in batches: the
# tests compare the engine's refits and the joint fit's kappa with them.


def kept_design(design, ay_keep: np.ndarray, dy_keep: np.ndarray):
    """The cells of ``design`` one row keeps, and the design of its kept levels alone.

    ``ay_keep`` (n_ay,) and ``dy_keep`` (n_dy,) mark the row's kept
    accident and development years, at least one of each; a cell is
    kept when both of its levels are. The kept levels are numbered in
    order, so the first kept level of each factor is the baseline and
    the coefficients are those the joint kernel does not hold
    (``glm._NormalEquations``), in order.
    """
    cells = ay_keep[design.ay_idx] & dy_keep[design.dy_idx]
    ay = np.cumsum(ay_keep)[design.ay_idx[cells]]
    dy = np.cumsum(dy_keep)[design.dy_idx[cells]] - 1
    return cells, build_design(ay, dy, int(ay_keep.sum()), int(dy_keep.sum()))


def refit(y_star: np.ndarray, spec):
    """Refit one replicate on its reduced design; returns (row_eff, col_eff, dispersion).

    The reference for the engine's batched refit (``_bootstrap._refit_batch``)
    plus the spec's bias correction. The reduced design has the
    replicate's kept levels only (:func:`kept_design`); None means it
    keeps no level or its refit fails. Row and column effects are on the
    log scale with dropped levels at -inf, so exp(row + col) gives zero
    means there. The dispersion slot holds kappa for negbin refits and
    phi for quasipoisson refits. A negative binomial refit is the
    engine's kernel ``dispersion._nb_mle_batch`` on one row; at the cap
    its means are those of the last kappa step, which ``nb_mle`` would
    refit there. A Poisson refit is the closed-form chain-ladder,
    failing where that does not apply.
    """
    # the levels with a positive total, by bincount rather than the chain-ladder it checks
    ay_keep, dy_keep = (keep[0] for keep in kept_levels(y_star[None], spec.design))
    if not ay_keep.any():
        return None
    cells, design = kept_design(spec.design, ay_keep, dy_keep)
    y_fit = y_star[cells].astype(float)

    try:
        poisson = _chain_ladder_batch(y_fit[None], design)  # the kernel's start
        if spec.family == "negbin":
            fitted = dispersion._nb_mle_batch(y_fit[None], design, poisson)
            coef, _, disp, converged, _ = (a[0] for a in fitted)
        else:
            coef, mu, converged = (a[0] for a in poisson[:3])
            disp = None
        if not converged:
            return None
        if spec.family == "negbin" and spec.correct:
            disp = dispersion.bias_correct(disp, spec.design.n, spec.design.p)
        elif spec.family == "quasipoisson":
            dof = design.n - design.p
            if dof <= 0:
                return None
            disp = float(pearson_statistic(y_fit, mu)) / dof
    except ReservingError:
        return None

    row_eff = np.full(spec.design.n_ay, -np.inf)
    col_eff = np.full(spec.design.n_dy, -np.inf)
    row_eff[ay_keep], col_eff[dy_keep] = _effects_from_coef(coef, design.n_ay)
    return row_eff, col_eff, disp


def solve_kappa(y: np.ndarray, mu: np.ndarray, kappa0: float) -> float:
    """Maximise the NB log-likelihood over kappa at the fixed means ``mu`` of one triangle.

    The reference for a joint fit's kappa. Safeguarded Newton iteration
    on log kappa within [KAPPA_MIN, KAPPA_CAP] from ``kappa0``, keeping a
    bracket of the root of the score, until a step is below 1e-10 or the
    score is exactly zero. Returns KAPPA_CAP at the Poisson boundary
    (``dispersion._boundary_sum``) and KAPPA_MIN when the score is not
    positive there. The score is ``dispersion._kappa_score``, looked up
    on the module at each call so that a test can count its calls.
    """
    y, mu = np.asarray(y, dtype=float), np.asarray(mu, dtype=float)
    if dispersion._boundary_sum(y, y - mu) <= 0.0:
        return KAPPA_CAP
    if dispersion._kappa_score(y, mu, KAPPA_MIN) <= 0.0:
        return KAPPA_MIN
    lo, hi = math.log(KAPPA_MIN), math.log(KAPPA_CAP)
    theta = min(max(np.log(kappa0), lo), hi)
    for _ in range(100):
        kappa = np.exp(theta)
        s, s_kappa = dispersion._kappa_score(y, mu, kappa, deriv=True)
        if s == 0.0:  # an iterate whose score is exactly zero is the root
            return float(kappa)
        if s > 0.0:
            lo = max(lo, theta)
        else:
            hi = min(hi, theta)
        g = kappa * s
        h = g + kappa * kappa * s_kappa
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = theta + (-g / h)
        theta_new = newton if h < 0.0 and lo < newton < hi else 0.5 * (lo + hi)
        if abs(theta_new - theta) < 1e-10:
            return float(np.exp(theta_new))
        theta = theta_new
    return float(np.exp(theta))
