"""The model hierarchy of the paper on random run-off triangles.

Poisson is the chain-ladder, the over-dispersed Poisson (ODP) has the
Poisson means with the Pearson phi, the negative binomial tends to the
Poisson as kappa grows, and the likelihood-ratio test of the negative
binomial against the Poisson sits on the boundary of kappa. A triangle
whose likelihood has no finite maximum is not filtered out: each
property then asks for the fit to raise ``SeparationError``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbreserve import Family, RunOffTriangle, chain_ladder, fit, overdispersion_test, to_long
from nbreserve.cli import _future_sum
from nbreserve.errors import NoResidualDofError, SeparationError
from nbreserve.glm import _counts_and_design
from conftest import positive_table_exists

KAPPA_LARGE = 1e8
SUITE = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def triangles(draw):
    """A square run-off triangle of dimension 2 to 10 from a random two-way model.

    Expected ultimates are log-uniform over [1, e^8] and the development
    pattern is a flat Dirichlet draw; the counts are Poisson or negative
    binomial (kappa log-uniform over [e^-1, e^7]), and some cells are
    then zeroed at random, which makes all-zero years and
    quasi-separated triangles too.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dimension = int(rng.integers(2, 11))
    mean = np.exp(rng.uniform(0.0, 8.0, size=(dimension, 1))) * rng.dirichlet(np.ones(dimension))
    if draw(st.booleans()):
        counts = rng.poisson(mean)
    else:
        kappa = math.exp(rng.uniform(-1.0, 7.0))
        counts = rng.negative_binomial(kappa, kappa / (kappa + mean))
    counts[rng.random(counts.shape) < draw(st.sampled_from([0.0, 0.0, 0.02, 0.1]))] = 0
    return RunOffTriangle.from_rows([counts[i, : dimension - i].tolist() for i in range(dimension)])


def has_maximum(t: RunOffTriangle) -> bool:
    """Whether the two-way likelihood has a finite maximum: every year has a count, and a strictly positive
    table has the triangle's margins (Haberman 1974)."""
    y, design = _counts_and_design(to_long(t))
    levels_kept = np.bincount(design.ay_idx, weights=y).all() and np.bincount(design.dy_idx, weights=y).all()
    return bool(levels_kept and positive_table_exists(y, design))


@SUITE
@given(t=triangles())
def test_poisson_is_the_chain_ladder(t):
    records = to_long(t)
    if not has_maximum(t):
        with pytest.raises(SeparationError):
            fit(records, Family.poisson())
        return
    assert _future_sum(fit(records, Family.poisson())) == pytest.approx(chain_ladder(t).total_reserve, rel=1e-8)


@SUITE
@given(t=triangles())
def test_odp_has_the_poisson_means_and_the_pearson_phi(t):
    records = to_long(t)
    if not has_maximum(t):
        with pytest.raises(SeparationError):
            fit(records, Family.quasi_poisson())
        return
    poisson = fit(records, Family.poisson())
    y, mu = poisson.y, poisson.fitted_mu
    pearson = float(np.sum((y - mu) ** 2 / mu))
    dof = poisson.n_obs - poisson.n_params
    if dof == 0:  # a saturated fit, as on a 2 x 2 triangle, whatever its residuals' rounding
        with pytest.raises(NoResidualDofError):
            fit(records, Family.quasi_poisson())
        return
    odp = fit(records, Family.quasi_poisson())
    assert np.array_equal(odp.fitted_mu, mu)
    assert odp.phi == pytest.approx(pearson / dof, rel=1e-12)


@SUITE
@given(t=triangles())
def test_negative_binomial_tends_to_the_poisson(t):
    records = to_long(t)
    if not has_maximum(t):
        with pytest.raises(SeparationError):
            fit(records, Family.negbin(KAPPA_LARGE))
        return
    poisson = fit(records, Family.poisson())
    mu_p, mu_nb = poisson.fitted_mu, fit(records, Family.negbin(KAPPA_LARGE)).fitted_mu
    # The negative binomial score is the Poisson one with cell weights
    # 1 - mu / (kappa + mu). Linearised at the Poisson fit, the log-mean
    # shift d solves X'MXd = -X'Dr (M = diag(mu), D = diag(mu / (kappa + mu)),
    # r = y - mu), so sum(mu d^2) <= sum(mu r^2) / kappa^2 and each cell
    # moves by at most sqrt(sum(mu r^2)) / (kappa sqrt(mu)): twice that
    # covers the second order, and 1e-9 the fits' own convergence
    r = poisson.y - mu_p
    bound = 2.0 * math.sqrt(float(np.sum(mu_p * r**2))) / (KAPPA_LARGE * np.sqrt(mu_p)) + 1e-9
    assert np.all(np.abs(np.log(mu_nb) - np.log(mu_p)) <= bound)


@SUITE
@given(t=triangles())
def test_boundary_test_of_the_negative_binomial(t):
    records = to_long(t)
    if not has_maximum(t):
        with pytest.raises(SeparationError):
            overdispersion_test(records)
        return
    report = overdispersion_test(records)
    assert report.statistic >= 0.0
    assert 0.0 <= report.p_value <= 0.5
    # the null's log-likelihood is the Poisson fit's
    assert report.loglik_poisson == pytest.approx(fit(records, Family.poisson()).loglik, rel=1e-10, abs=1e-9)
