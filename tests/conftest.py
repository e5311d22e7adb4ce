import numpy as np
import pytest

from nbreserve import RunOffTriangle, australian_bodily_injury, taylor_ashe


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


def drop_pattern(Y: np.ndarray, design):
    """Kept cells and pinned coefficients of each row of ``Y``, by the engine's rule.

    A level is dropped when its total in the row is zero.
    """
    from nbreserve.glm import _kept_levels, drop_masks

    return drop_masks(design, *_kept_levels(Y, design))
