import numpy as np
import pytest

from nbreserve import RunOffTriangle, australian_bodily_injury, taylor_ashe


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

    from nbreserve.glm import _kept_design

    ay_keep, dy_keep = kept_levels(y[None], design)
    cells, kept = _kept_design(design, ay_keep[0], dy_keep[0])
    n = kept.n
    a_eq = np.hstack((kept.X.T, np.zeros((kept.p, 1))))
    a_ub = np.hstack((-np.eye(n), np.ones((n, 1))))
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=kept.X.T @ y[cells],
                  bounds=[(0, None)] * n + [(0, 1)], method="highs")
    assert res.status == 0
    return -res.fun > 0.5 / n
