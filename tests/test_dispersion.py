import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import polygamma

from nbreserve import (
    Family,
    adjusted_profile_loglik,
    bias_correct,
    bootstrap,
    fit,
    maximize_adjusted_profile,
    nb_loglik,
    nb_mle,
    overdispersion_test,
    profile_kappa,
    to_long,
)
from nbreserve import RunOffTriangle
from nbreserve.dispersion import (
    CHI2_1_95,
    KAPPA_CAP,
    KAPPA_MIN,
    _KAPPA_SERIES,
    _kappa_score,
    _moment_kappa,
    _nb_mle_batch,
    _prepare,
    _solve_kappa,
    _solve_kappa_batch,
    _trigamma,
)
from nbreserve.errors import NotConvergedError
from nbreserve.glm import _irls, build_design, triangle_cells
from conftest import drop_pattern, random_triangle


class TestBiasCorrect:
    def test_ratio_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            kappa = float(rng.uniform(0.1, 100))
            assert bias_correct(kappa, 55, 19) / kappa == pytest.approx(36 / 55, rel=1e-15)

    def test_known_value(self):
        assert bias_correct(4.8, 28, 13) == pytest.approx(2.5714285714285716, rel=1e-12)

    def test_identity_when_no_params(self):
        assert bias_correct(7.0, 10, 0) == 7.0

    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            bias_correct(5.0, 10, 10)
        with pytest.raises(ValueError):
            bias_correct(5.0, 10, -1)


@pytest.fixture(scope="module")
def est(australian):
    return profile_kappa(to_long(australian))


@pytest.fixture(scope="module")
def report(australian):
    return overdispersion_test(to_long(australian))


class TestProfile:
    def test_mle(self, est):
        assert est.kappa_mle == pytest.approx(4.799976865655617, rel=1e-6)
        assert not est.at_boundary

    def test_adj_matches_closed_form(self, est):
        assert est.kappa_adj == pytest.approx(bias_correct(est.kappa_mle, 28, 13), rel=1e-12)
        assert est.n_obs == 28 and est.n_params == 13

    def test_ci(self, est):
        lo, hi = est.ci95
        assert lo == pytest.approx(2.7431469, rel=1e-5)
        assert hi == pytest.approx(7.7711233, rel=1e-5)

    def test_ci_inverts_likelihood_ratio(self, est, australian):
        # both endpoints sit where the profile drops by the 95% chi-square cut
        recs = to_long(australian)

        def prof(k):
            m = fit(recs, Family.negbin(k))
            return nb_loglik(m.y, m.fitted_mu, k)

        for bound in est.ci95:
            assert 2 * (est.loglik - prof(bound)) == pytest.approx(CHI2_1_95, abs=1e-4)

    def test_curve_contains_markers(self, est):
        kappas = est.profile_curve[:, 0]
        for point in (est.kappa_mle, *est.ci95):
            assert np.any(np.isclose(kappas, point, rtol=1e-9))

    def test_curve_max_at_mle(self, est):
        curve = est.profile_curve
        assert curve[np.argmax(curve[:, 1]), 0] == est.kappa_mle
        assert np.all(np.diff(curve[:, 0]) > 0)

    def test_loglik_frozen(self, est):
        assert est.loglik == pytest.approx(-184.99058963515932, rel=1e-9)

    def test_record_order_invariant(self, australian):
        # row order shifts the IRLS path at roundoff level, and near the
        # optimum the flat profile amplifies that into the 7th decimal
        recs = to_long(australian)
        est1 = profile_kappa(recs)
        est2 = profile_kappa(recs[::-1])
        assert est2.kappa_mle == pytest.approx(est1.kappa_mle, rel=1e-5)
        assert est2.loglik == pytest.approx(est1.loglik, abs=1e-9)


class TestBoundary:
    def test_poisson_data_hits_cap(self):
        rng = np.random.default_rng(101)
        t = random_triangle(rng, 7)
        est = profile_kappa(to_long(t))
        assert est.at_boundary
        assert est.kappa_mle == KAPPA_CAP
        assert est.ci95[1] == KAPPA_CAP


class TestJointMle:
    def test_agrees_with_profile(self, australian):
        recs = to_long(australian)
        est = profile_kappa(recs)
        y = np.array([r.count for r in recs], dtype=float)
        design = build_design([r.ay for r in recs], [r.dy for r in recs])
        coef, mu, kappa, at_boundary = nb_mle(y, design)
        assert not at_boundary
        assert kappa == pytest.approx(est.kappa_mle, rel=1e-4)
        assert nb_loglik(y, mu, kappa) == pytest.approx(est.loglik, abs=1e-6)

    def test_poisson_data_boundary(self):
        rng = np.random.default_rng(103)
        t = random_triangle(rng, 6)
        recs = to_long(t)
        y = np.array([r.count for r in recs], dtype=float)
        design = build_design([r.ay for r in recs], [r.dy for r in recs])
        _, _, kappa, at_boundary = nb_mle(y, design)
        assert at_boundary
        assert kappa == KAPPA_CAP


class TestKappaSolve:
    # an overdispersed draw (kappa about 125) on which nb_mle used to stop
    # at the cap, below the profile maximum, because it tested the sign of
    # a rounding-level score at kappa = 1e8
    NEAR_POISSON = [
        [114, 103, 100, 27, 27, 10, 7], [123, 73, 65, 48, 14, 9], [94, 54, 41, 24, 18],
        [90, 87, 55, 9], [97, 74, 55], [91, 71], [82],
    ]

    # seeded draws whose Pearson excess at the Poisson means is not
    # positive while sum((y - mu)^2 - y) is: the moment start is the cap,
    # where the score used to be rounding noise, and the Newton iteration
    # stopped there although the maximiser is interior (profile kappa
    # about 2480 and 730)
    CAP_START = [
        [[216, 455, 256, 178, 69, 78, 39, 19, 26, 7], [183, 306, 228, 180, 54, 47, 32, 17, 18],
         [241, 431, 319, 217, 82, 96, 46, 27], [191, 324, 206, 119, 54, 65, 26],
         [266, 392, 309, 168, 67, 90], [251, 414, 311, 165, 68], [198, 354, 238, 141],
         [167, 310, 195], [234, 410], [210]],
        [[92, 143, 63, 38, 21, 25, 9, 10, 17, 1, 3], [142, 157, 64, 33, 43, 21, 19, 10, 6, 0],
         [103, 150, 56, 43, 19, 24, 9, 3, 5], [95, 116, 80, 40, 22, 25, 10, 5],
         [93, 135, 76, 34, 30, 29, 10], [116, 130, 76, 55, 30, 21], [94, 122, 48, 47, 27],
         [96, 151, 93, 44], [75, 98, 62], [125, 182], [98]],
    ]

    # a near-Poisson draw (profile kappa about 17900) on which the joint fit
    # used to stop at the cap, 8e-4 below the profile maximum; near its root
    # a digamma-based score is so noisy that the root moves by about 1e-7
    # in log kappa from sweep to sweep, more than the joint fit's 1e-9 stop
    FLAT_TOP = [
        [260, 276, 198, 80, 65, 37, 40, 18, 19, 7, 6, 3], [183, 209, 146, 55, 76, 26, 20, 15, 8, 5, 6],
        [238, 251, 207, 77, 66, 44, 29, 24, 6, 6], [167, 235, 186, 81, 83, 46, 24, 29, 12],
        [192, 211, 125, 63, 67, 24, 25, 11], [165, 177, 138, 47, 49, 32, 16], [235, 230, 171, 73, 106, 32],
        [219, 208, 165, 75, 80], [235, 220, 191, 65], [183, 208, 138], [227, 238], [149],
    ]

    @pytest.mark.parametrize(
        "rows",
        [NEAR_POISSON] + CAP_START + [FLAT_TOP],
        ids=["near-poisson", "cap-start-10", "cap-start-11", "flat-top"],
    )
    def test_joint_fit_reaches_profile_maximum(self, rows):
        records = to_long(RunOffTriangle.from_rows(rows))
        est = profile_kappa(records)
        report = overdispersion_test(records)
        assert not est.at_boundary
        assert report.loglik_nb >= est.loglik - 1e-6
        assert report.kappa_mle == pytest.approx(est.kappa_mle, rel=1e-3)

    @pytest.mark.parametrize("rows", CAP_START, ids=["cap-start-10", "cap-start-11"])
    def test_batch_leaves_the_cap_start(self, rows):
        y, design = _prepare(to_long(RunOffTriangle.from_rows(rows)))
        _, mu, *_ = _irls(y, design, Family.poisson())
        assert _moment_kappa(y, mu) == KAPPA_CAP
        scalar = _solve_kappa(y, mu, KAPPA_CAP)
        assert scalar < 1e4
        assert _solve_kappa_batch(y[None], mu[None], np.array([KAPPA_CAP])).tolist() == [scalar]

    @pytest.mark.parametrize("kappa", [1e7, 1e8])
    def test_score_accurate_at_large_kappa(self, kappa):
        # the score tends to -sum((y - mu)^2 - y) / (2 kappa^2), here about
        # 3e-13 and 3e-15, below the rounding error of a digamma-based sum
        y, design = _prepare(to_long(RunOffTriangle.from_rows(self.FLAT_TOP)))
        _, mu, *_ = _irls(y, design, Family.poisson())
        leading = -np.sum((y - mu) ** 2 - y) / (2.0 * kappa**2)
        assert _kappa_score(y, mu, kappa) == pytest.approx(leading, rel=1e-2, abs=0.0)

    def test_score_continuous_at_series_switch(self, australian):
        y, design = _prepare(to_long(australian))
        _, mu, *_ = _irls(y, design, Family.poisson())
        below = _kappa_score(y, mu, np.nextafter(_KAPPA_SERIES, 0.0))
        assert below == pytest.approx(_kappa_score(y, mu, _KAPPA_SERIES), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("ratio", [1e3, 1e6])
    def test_stays_in_search_range(self, ratio):
        # one huge count among zeros puts the maximiser below the search range
        y = np.array([0.0] * 5 + [1000.0])
        mu = np.full(6, 1000.0 / 6)
        mu[-1] = 1000.0 / ratio
        assert _solve_kappa(y, mu, 1.0) == KAPPA_MIN

    def test_batch_matches_scalar(self, australian):
        recs = to_long(australian)
        y = np.array([r.count for r in recs], dtype=float)
        _, mu, _, _ = nb_mle(y, build_design([r.ay for r in recs], [r.dy for r in recs]))
        rng = np.random.default_rng(3)
        Y = np.vstack([y, rng.poisson(mu, size=(3, y.size)), np.r_[np.zeros(y.size - 1), 1e5]])
        M = np.vstack([mu] * 4 + [np.full(y.size, 1e5 / 28 / 1e3)])
        kappa0 = np.array([1.0, 50.0, 1e4, 3.0, 1.0])
        rows = _solve_kappa_batch(Y, M, kappa0)
        assert rows.tolist() == [_solve_kappa(a, b, k) for a, b, k in zip(Y, M, kappa0)]
        assert np.all((rows >= KAPPA_MIN) & (rows <= KAPPA_CAP))


class TestTrigamma:
    """The trigamma kernel of the kappa Newton step against scipy's."""

    def test_log_spaced_range(self):
        x = np.geomspace(KAPPA_MIN, KAPPA_CAP, 4001)
        assert np.max(np.abs(_trigamma(x) / polygamma(1, x) - 1.0)) < 2e-15

    def test_matrix_and_shape_free(self):
        # counts plus kappa, as the batched solve passes them
        rng = np.random.default_rng(2)
        x = rng.poisson(rng.gamma(2.0, 50.0, size=(40, 55))) + rng.uniform(1e-3, 30.0, size=(40, 1))
        got = _trigamma(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got / polygamma(1, x) - 1.0)) < 2e-15
        # each element's value does not depend on the array it came in
        assert np.array_equal(got[7], _trigamma(x[7]))
        assert all(_trigamma(v) == g for v, g in zip(x[3, :10], got[3, :10]))


PROFILE_TRIANGLES = {
    "near-poisson": TestKappaSolve.NEAR_POISSON,
    "cap-start-10": TestKappaSolve.CAP_START[0],
    "cap-start-11": TestKappaSolve.CAP_START[1],
    "flat-top": TestKappaSolve.FLAT_TOP,
}


@pytest.fixture(params=["australian", "taylor", *PROFILE_TRIANGLES])
def interior_triangle(request):
    if request.param in PROFILE_TRIANGLES:
        return RunOffTriangle.from_rows(PROFILE_TRIANGLES[request.param])
    return request.getfixturevalue(request.param)


def _without_and_with_grid(recs):
    sparse = profile_kappa(recs)
    dense = profile_kappa(recs, grid_size=60)
    for field in ("kappa_mle", "kappa_adj", "ci95", "at_boundary", "loglik"):
        assert getattr(dense, field) == getattr(sparse, field)
    return sparse, dense


class TestProfileSearch:
    def test_grid_changes_only_the_curve(self, interior_triangle):
        sparse, dense = _without_and_with_grid(to_long(interior_triangle))
        assert len(dense.profile_curve) >= 60 > len(sparse.profile_curve)

    def test_grid_changes_only_the_curve_at_the_cap(self):
        sparse, _ = _without_and_with_grid(to_long(random_triangle(np.random.default_rng(101), 7)))
        assert sparse.at_boundary

    def test_grid_leaves_out_points_whose_refit_fails(self):
        # near-separated: the refit at kappa = 1e-3 does not converge within
        # the IRLS budget, which must not sink the estimate
        recs = to_long(RunOffTriangle.from_rows([[31, 64, 8, 15], [0, 3, 14], [0, 390], [1]]))
        _, dense = _without_and_with_grid(recs)
        assert KAPPA_MIN not in dense.profile_curve[:, 0]
        assert len(dense.profile_curve) >= 59

    def test_no_curve_row_above_the_estimate(self, interior_triangle):
        est = profile_kappa(to_long(interior_triangle), grid_size=60)
        assert np.all(est.profile_curve[:, 1] <= est.loglik + 1e-9)

    def test_one_kappa_for_fit_test_and_bootstrap(self, interior_triangle):
        recs = to_long(interior_triangle)
        est = profile_kappa(recs)
        assert not est.at_boundary
        assert est.kappa_mle == overdispersion_test(recs).kappa_mle
        assert est.kappa_mle == bootstrap(interior_triangle, b=20, seed=0, workers=1).kappa_mle


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(4, 7),
    kappa=st.sampled_from([1.0, 5.0, 30.0, math.inf]),
)
def test_profile_no_lower_than_fixed_kappa_fits(seed, dimension, kappa):
    # the profile maximum is at least the best negative binomial fit on a
    # kappa grid, whatever the triangle
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 2.0, size=dimension)
    weights /= weights.sum()
    rows = []
    for i in range(dimension):
        mu = np.exp(rng.uniform(5.0, 7.0)) * weights[: dimension - i]
        lam = mu if math.isinf(kappa) else rng.gamma(kappa, mu / kappa)
        rows.append(rng.poisson(lam).tolist())
    cols = np.zeros(dimension)
    for r in rows:
        cols[: len(r)] += r
    assume(np.all(cols > 0) and all(sum(r) > 0 for r in rows))
    recs = to_long(RunOffTriangle.from_rows(rows))
    est = profile_kappa(recs)
    best = max(fit(recs, Family.negbin(k)).loglik for k in np.geomspace(0.1, 1e6, 16))
    assert est.loglik >= best - 1e-6


@st.composite
def nb_batches(draw):
    """A triangle design and a batch of count rows of mixed kinds.

    Rows are overdispersed, Poisson (whose fit stops at the cap),
    wildly overdispersed (kappa 0.05, many zero cells) or overdispersed
    with one accident or development year zeroed, baselines included.
    The joint fit does not reach KAPPA_MIN on counts: there the kappa
    score is about the number of positive cells over KAPPA_MIN.
    """
    dim = draw(st.integers(4, 8))
    (ay, dy), _ = triangle_cells(dim)
    design = build_design(ay + 1, dy, dim, dim)
    kinds = draw(st.lists(st.sampled_from(["nb", "poisson", "wild", "dropped"]), min_size=5, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        mean = np.exp(rng.uniform(4.0, 8.0, size=dim))[ay] * rng.dirichlet(np.full(dim, 5.0))[dy]
        kappa = 0.05 if kind == "wild" else rng.uniform(1.0, 20.0)
        lam = mean if kind == "poisson" else rng.gamma(kappa, mean / kappa)
        y = rng.poisson(lam).astype(float)
        if kind == "dropped":
            level = rng.integers(dim)
            y[(ay if rng.random() < 0.5 else dy) == level] = 0.0
        rows.append(y)
    return np.array(rows), design


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(batch=nb_batches())
def test_one_joint_estimator(batch):
    # each row's fit is the same whatever rows share its batch, and an
    # unmasked row's is exactly nb_mle's
    Y, design = batch
    mask, pin = drop_pattern(Y, design)
    out = _nb_mle_batch(Y, design, mask=mask, pin=pin)
    coef, mu, kappa, ok, _ = out
    for r in range(len(Y)):
        alone = _nb_mle_batch(Y[r : r + 1], design, mask=mask[r : r + 1], pin=pin[r : r + 1])
        for got, want in zip(out, alone):
            assert np.array_equal(got[r], want[0], equal_nan=True)
        if not mask[r].all():
            continue
        if ok[r]:
            c, m, k, at_boundary = nb_mle(Y[r], design)
            assert np.array_equal(c, coef[r]) and np.array_equal(m, mu[r])
            assert k == kappa[r] and at_boundary == (k == KAPPA_CAP)
        else:
            with pytest.raises(NotConvergedError):
                nb_mle(Y[r], design)
    # converged rows below the cap sit at the joint maximum
    inner = ok & (kappa < KAPPA_CAP)
    k, m = kappa[inner], mu[inner] * mask[inner]
    s = k[:, None] * (Y[inner] - m) / (k[:, None] + m) * mask[inner]
    assert np.all(np.abs(s @ design.X).max(axis=1) <= 1e-9 * Y[inner].sum(axis=1))
    assert np.all(np.abs(k * _kappa_score(Y[inner], m, k)) <= 1e-9)


class TestSelection:
    def test_statistic_frozen(self, report):
        assert report.statistic == pytest.approx(2550.0684, abs=0.01)
        assert report.p_value < 1e-300

    def test_statistic_is_twice_loglik_gap(self, report):
        gap = 2 * (report.loglik_nb - report.loglik_poisson)
        assert report.statistic == pytest.approx(gap, rel=1e-12)

    def test_information_criteria(self, report):
        # 13 mean parameters, plus kappa for the negative binomial
        n = 28
        assert report.aic_poisson == pytest.approx(2 * 13 - 2 * report.loglik_poisson, rel=1e-12)
        assert report.aic_nb == pytest.approx(2 * 14 - 2 * report.loglik_nb, rel=1e-12)
        assert report.bic_poisson == pytest.approx(13 * np.log(n) - 2 * report.loglik_poisson, rel=1e-12)
        assert report.bic_nb == pytest.approx(14 * np.log(n) - 2 * report.loglik_nb, rel=1e-12)
        assert report.aic_nb < report.aic_poisson

    def test_equidispersed_data_boundary_pvalue(self):
        # Poisson data: the statistic collapses and the boundary mixture
        # puts half its mass at zero
        rng = np.random.default_rng(107)
        t = random_triangle(rng, 7)
        rep = overdispersion_test(to_long(t))
        assert rep.statistic >= 0.0
        assert rep.p_value > 0.05


class TestAdjustedProfile:
    def test_penalty_lowers_loglik(self, australian):
        recs = to_long(australian)
        est = profile_kappa(recs)
        adj = adjusted_profile_loglik(recs, est.kappa_mle)
        assert adj < est.loglik

    def test_maximizer_between_adj_and_mle(self, australian):
        recs = to_long(australian)
        est = profile_kappa(recs)
        kappa_cr = maximize_adjusted_profile(recs)
        assert kappa_cr == pytest.approx(2.81287, abs=1e-3)
        assert est.kappa_adj < kappa_cr < est.kappa_mle


class TestTaylorAshe:
    def test_kappa(self, taylor):
        est = profile_kappa(to_long(taylor))
        assert est.kappa_mle == pytest.approx(13.8347, abs=0.001)
        assert est.kappa_adj == pytest.approx(bias_correct(est.kappa_mle, 55, 19), rel=1e-12)
        assert not est.at_boundary

    def test_ci_inverts_likelihood_ratio(self, taylor):
        recs = to_long(taylor)
        est = profile_kappa(recs)
        for bound in est.ci95:
            m = fit(recs, Family.negbin(bound))
            assert 2 * (est.loglik - nb_loglik(m.y, m.fitted_mu, bound)) == pytest.approx(CHI2_1_95, abs=1e-4)
