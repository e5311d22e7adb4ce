import math
import warnings
from types import SimpleNamespace

import mpmath
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
from nbreserve import dispersion, glm
from nbreserve.dispersion import (
    CHI2_1_95,
    KAPPA_CAP,
    KAPPA_MIN,
    _KAPPA_SERIES,
    _joint_fit,
    _kappa_score,
    _nb_mle_batch,
    _polygamma,
    _prepare,
    _profile_curvature,
    _ProfileCache,
    _start_kappa,
)
from nbreserve.errors import NoResidualDofError, NotConvergedError, SeparationError
from nbreserve.glm import _IRLS_MAX_ITER, _irls, _lgamma, build_design
from nbreserve.triangle import triangle_cells
from conftest import drop_pattern, random_triangle, solve_kappa


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

    def test_no_residual_dof_is_typed(self):
        with pytest.raises(NoResidualDofError, match="no residual degrees of freedom"):
            bias_correct(5.0, 3, 3)

    def test_array_is_elementwise(self):
        kappas = np.geomspace(KAPPA_MIN, KAPPA_CAP, 50)
        assert bias_correct(kappas, 55, 19).tolist() == [bias_correct(float(k), 55, 19) for k in kappas]
        with pytest.raises(ValueError, match="must be positive"):
            bias_correct(np.array([4.8, 0.0, 2.0]), 28, 13)


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

    @pytest.mark.parametrize("name", ["australian", "taylor", "at-cap", "quasi-separated"])
    def test_is_the_remembered_joint_fit(self, name, request, monkeypatch):
        # nb_mle ends on the means _joint_fit remembers, refitted at the
        # cap, bit for bit, and neither reads nor writes that memo
        rows = {"at-cap": AT_CAP_ROWS, "quasi-separated": QUASI_SEPARATED}.get(name)
        y, design = _prepare(to_long(RunOffTriangle.from_rows(rows) if rows else request.getfixturevalue(name)))
        monkeypatch.setattr(glm, "_last_joint_fit", ((), None))
        if name == "quasi-separated":
            # no finite maximum: the closed-form Poisson start rejects the
            # counts before any iteration, so on every CPU target alike
            for call in (_joint_fit, nb_mle):
                with pytest.raises(SeparationError, match="no finite maximum"):
                    call(y, design)
            assert glm._last_joint_fit == ((), None)
            return
        joint = _joint_fit(y, design)
        key, _ = glm._last_joint_fit
        decoy = (key, joint._replace(coef=joint.coef * 0.0, mu=joint.mu * 0.0))
        monkeypatch.setattr(glm, "_last_joint_fit", decoy)
        got = nb_mle(y, design)
        assert glm._last_joint_fit is decoy
        for a, b in zip(got, joint[:4]):
            assert np.array_equal(a, b)
        assert got[3] == (name == "at-cap")


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
        # the Pearson moment is degenerate here, so the joint fit would start
        # from the large-kappa moment; a solve from the cap itself leaves it
        y, design = _prepare(to_long(RunOffTriangle.from_rows(rows)))
        _, mu, *_ = _irls(y, design, Family.poisson())
        assert _start_kappa(y[None], mu[None]).tolist() == [np.sum(mu * mu) / np.sum((y - mu) ** 2 - y)]
        assert solve_kappa(y, mu, KAPPA_CAP) < 1e4

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
        assert solve_kappa(y, mu, 1.0) == KAPPA_MIN

    def test_exact_zero_score_settles_at_once(self, monkeypatch):
        # two cells whose score, summed in floating point, is exactly 0.0 at
        # several kappas next to its root: such an iterate is the root, and
        # the solve settles there rather than bisecting back to it
        y, mu = np.array([10.0, 20.0]), np.array([15.0, 15.0])
        root = solve_kappa(y, mu, 1.0)
        near = root + np.arange(-300, 301) * np.spacing(root)
        s = _kappa_score(np.tile(y, (near.size, 1)), np.tile(mu, (near.size, 1)), near)
        zeros = near[(s == 0.0) & (np.exp(np.log(near)) == near)]
        assert zeros.size
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _kappa_score(*args, **kwargs)

        monkeypatch.setattr(dispersion, "_kappa_score", counted)
        for kappa0 in zeros:
            calls.clear()
            assert solve_kappa(y, mu, kappa0) == kappa0
            assert len(calls) == 2  # the check at KAPPA_MIN, then one Newton iteration

    def test_score_rows_do_not_see_a_nan_row(self, australian):
        # a diverging row's NaN kappa changes neither another row's score
        # and slope nor its choice between the digamma and the series form
        y, design = _prepare(to_long(australian))
        _, mu, *_ = _irls(y, design, Family.poisson())
        kappa = np.array([np.nan, 4.8, 5e3])
        with np.errstate(invalid="ignore"):
            score, slope = _kappa_score(np.tile(y, (3, 1)), np.tile(mu, (3, 1)), kappa, deriv=True)
        for r in (1, 2):
            assert (score[r], slope[r]) == _kappa_score(y, mu, kappa[r], deriv=True)

    def test_solve_stays_in_range(self, australian):
        recs = to_long(australian)
        y = np.array([r.count for r in recs], dtype=float)
        _, mu, _, _ = nb_mle(y, build_design([r.ay for r in recs], [r.dy for r in recs]))
        rng = np.random.default_rng(3)
        Y = np.vstack([y, rng.poisson(mu, size=(3, y.size)), np.r_[np.zeros(y.size - 1), 1e5]])
        M = np.vstack([mu] * 4 + [np.full(y.size, 1e5 / 28 / 1e3)])
        kappa0 = np.array([1.0, 50.0, 1e4, 3.0, 1.0])
        rows = np.array([solve_kappa(a, b, k) for a, b, k in zip(Y, M, kappa0)])
        assert np.all((rows >= KAPPA_MIN) & (rows <= KAPPA_CAP))


class TestTrigamma:
    """The digamma-trigamma kernel of the kappa Newton step against scipy's."""

    def test_log_spaced_range(self):
        x = np.geomspace(KAPPA_MIN, KAPPA_CAP, 4001)
        _, tri = _polygamma(x, trigamma=True)
        assert np.max(np.abs(tri / polygamma(1, x) - 1.0)) < 2e-15

    def test_matrix_and_shape_free(self):
        # counts plus kappa, as the batched solve passes them
        rng = np.random.default_rng(2)
        x = rng.poisson(rng.gamma(2.0, 50.0, size=(40, 55))) + rng.uniform(1e-3, 30.0, size=(40, 1))
        psi, tri = _polygamma(x, trigamma=True)
        assert psi.shape == tri.shape == x.shape
        assert np.max(np.abs(tri / polygamma(1, x) - 1.0)) < 2e-15
        assert np.max(np.abs(psi - polygamma(0, x)) / np.maximum(np.abs(psi), 1.0)) < 2e-15
        # each element's values do not depend on the array it came in,
        # nor psi on whether psi' is asked for too
        assert np.array_equal(_polygamma(x), psi)
        for got, want in zip(_polygamma(x[7], trigamma=True), (psi[7], tri[7])):
            assert np.array_equal(got, want)

        def alone(v):
            (psi_v, tri_v), only_psi = _polygamma(np.array([v]), trigamma=True), _polygamma(np.array([v]))
            return psi_v[0], tri_v[0], only_psi[0]

        for j, v in enumerate(x[3, :10]):
            assert alone(v) == (psi[3, j], tri[3, j], psi[3, j])
        # a lone value below 10 takes the shift too
        small = np.array([[0.5, 3.0, 9.5, 25.0]])
        psi_s, tri_s = _polygamma(small, trigamma=True)
        for j, v in enumerate(small[0]):
            assert alone(v) == (psi_s[0, j], tri_s[0, j], psi_s[0, j])
        # nor on a NaN elsewhere, as a diverging row of a batch may hold
        x[0, 0] = np.nan
        for got, want in zip(_polygamma(x, trigamma=True), (psi, tri)):
            assert np.array_equal(got[1:], want[1:])


def _error_against(got, exact) -> float:
    """Largest error of ``got`` against mpmath values: relative, or absolute where |exact| < 1."""
    return max(float(abs(mpmath.mpf(float(g)) - e) / max(abs(e), 1)) for g, e in zip(got, exact))


class TestSpecialFunctionsAgainstMpmath:
    """psi, psi' and log Gamma against 40-digit mpmath values, to 2e-15."""

    @pytest.fixture(autouse=True)
    def _digits(self):
        with mpmath.workdps(40):
            yield

    @staticmethod
    def arguments():
        rng = np.random.default_rng(5)
        counts = rng.poisson(rng.gamma(2.0, 50.0, size=(8, 55))) + rng.uniform(1e-3, 30.0, size=(8, 1))
        return {
            "log-spaced": np.geomspace(KAPPA_MIN, 1e9, 600),
            "counts-plus-kappa": counts.ravel(),
            # psi's positive root is 1.46163214496836...
            "near-psi-root": np.linspace(1.40, 1.52, 241),
        }

    @pytest.mark.parametrize("where", ["log-spaced", "counts-plus-kappa", "near-psi-root"])
    def test_polygamma(self, where):
        x = self.arguments()[where]
        psi, tri = _polygamma(x, trigamma=True)
        assert _error_against(psi, [mpmath.digamma(mpmath.mpf(v)) for v in x.tolist()]) <= 2e-15
        assert _error_against(tri, [mpmath.polygamma(1, mpmath.mpf(v)) for v in x.tolist()]) <= 2e-15

    @pytest.mark.parametrize("where", ["log-spaced", "counts-plus-kappa", "near-psi-root"])
    def test_lgamma(self, where):
        x = self.arguments()[where]
        assert _error_against(_lgamma(x), [mpmath.loggamma(mpmath.mpf(v)) for v in x.tolist()]) <= 2e-15

    def test_lgamma_of_counts_is_log_factorial(self):
        y = np.arange(0.0, 200.0)
        got = _lgamma(y + 1.0)
        assert got[0] == got[1] == 0.0  # 0! = 1! = 1
        assert _error_against(got, [mpmath.log(mpmath.factorial(int(v))) for v in y.tolist()]) <= 2e-15


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


# a near-separated triangle on which profile_kappa used to raise
# NotConvergedError, and Fisher-scoring fits at fixed kappa converged
# linearly or not at all
NEAR_SEPARATED = [[63, 0, 0, 40], [137, 12, 370], [338, 448], [11]]


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

    def test_grid_leaves_out_points_whose_refit_fails(self, monkeypatch):
        # a grid refit that fails (here the one at kappa = 1e-3, made to)
        # must not sink the estimate
        refit = dispersion._irls

        def failing_at_floor(y, design, family, start=None):
            if family.kappa == KAPPA_MIN:
                raise NotConvergedError("refit made to fail")
            return refit(y, design, family, start=start)

        monkeypatch.setattr(dispersion, "_irls", failing_at_floor)
        recs = to_long(RunOffTriangle.from_rows([[31, 64, 8, 15], [0, 3, 14], [0, 390], [1]]))
        _, dense = _without_and_with_grid(recs)
        assert KAPPA_MIN not in dense.profile_curve[:, 0]
        assert len(dense.profile_curve) >= 59

    def test_ci_inverts_likelihood_ratio(self, interior_triangle):
        # every endpoint inside the search range, against IRLS fits
        recs = to_long(interior_triangle)
        est = profile_kappa(recs)
        for bound in est.ci95:
            if KAPPA_MIN < bound < KAPPA_CAP:
                m = fit(recs, Family.negbin(bound))
                assert 2 * (est.loglik - m.loglik) == pytest.approx(CHI2_1_95, abs=1e-4)

    def test_near_separated_triangle(self):
        # the lower endpoint walk refits at kappa about 0.04, where Fisher
        # scoring ran out of iterations; the profile at each endpoint comes
        # from a cold refit whose coefficient score must vanish
        recs = to_long(RunOffTriangle.from_rows(NEAR_SEPARATED))
        est = profile_kappa(recs)
        y, design = _prepare(recs)
        assert not est.at_boundary
        finite = [bound for bound in est.ci95 if KAPPA_MIN < bound < KAPPA_CAP]
        assert len(finite) == 2
        for bound in finite:
            cold = _ProfileCache(y, design)
            ll = cold(bound)
            score = design.X.T @ (bound * (y - cold.mu) / (bound + cold.mu))
            assert np.abs(score).max() <= 1e-9 * y.sum()
            assert 2 * (est.loglik - ll) == pytest.approx(CHI2_1_95, abs=1e-4)

    @pytest.mark.parametrize("kappa", [0.300, 0.858, 2.105])
    def test_fit_converges_on_near_separated_triangle(self, kappa):
        # the profile estimate and interval endpoints of NEAR_SEPARATED:
        # Fisher scoring took 41-53 iterations at the first two and ran out
        # of iterations at the third
        model = fit(to_long(RunOffTriangle.from_rows(NEAR_SEPARATED)), Family.negbin(kappa))
        assert model.converged
        assert model.n_iter <= 10

    def test_no_curve_row_above_the_estimate(self, interior_triangle):
        est = profile_kappa(to_long(interior_triangle), grid_size=60)
        assert np.all(est.profile_curve[:, 1] <= est.loglik + 1e-9)

    def test_one_kappa_for_fit_test_and_bootstrap(self, interior_triangle):
        recs = to_long(interior_triangle)
        est = profile_kappa(recs)
        assert not est.at_boundary
        assert est.kappa_mle == overdispersion_test(recs).kappa_mle
        assert est.kappa_mle == bootstrap(interior_triangle, b=20, seed=0, workers=1).kappa_mle


@pytest.fixture
def endpoints(monkeypatch):
    """Record the Newton steps, the refits of the means and each interval endpoint search of the calls that follow.

    ``steps`` and ``refits`` list the kappa of every evaluation of
    ``dispersion._tangent_terms`` (once per Newton step, and once for the
    profile's curvature) and of ``dispersion._irls``; ``searches`` has,
    per ``dispersion._ci_endpoint`` call, its kappa, the steps and
    refits it made, and the profile's last point: the means and
    log-likelihood at the endpoint.
    """
    seen = SimpleNamespace(steps=[], refits=[], searches=[])

    def search(profile, *args):
        steps, refits = len(seen.steps), len(seen.refits)
        kappa = ci_endpoint(profile, *args)
        seen.searches.append(SimpleNamespace(
            kappa=kappa, steps=seen.steps[steps:], refits=seen.refits[refits:],
            mu=profile.mu, loglik=profile.evals[-1][1],
        ))
        return kappa

    def step(y, X, mu, kappa):
        seen.steps.append(kappa)
        return terms(y, X, mu, kappa)

    def refit(y, design, family, start=None):
        seen.refits.append(family.kappa)
        return irls(y, design, family, start=start)

    ci_endpoint, terms, irls = dispersion._ci_endpoint, dispersion._tangent_terms, dispersion._irls
    monkeypatch.setattr(dispersion, "_ci_endpoint", search)
    monkeypatch.setattr(dispersion, "_tangent_terms", step)
    monkeypatch.setattr(dispersion, "_irls", refit)
    return seen


class TestProfileRefits:
    """The profile's Newton refits, analytic curvature and shared joint fit."""

    def test_curvature_matches_central_difference(self, interior_triangle):
        recs = to_long(interior_triangle)
        y, design = _prepare(recs)
        _, mu, kappa, _ = nb_mle(y, design)
        h = 0.01

        def prof(theta):
            return fit(recs, Family.negbin(kappa * math.exp(theta))).loglik

        numeric = (prof(h) + prof(-h) - 2.0 * prof(0.0)) / h**2
        curv, _ = _profile_curvature(y, design.X, mu, kappa)
        assert curv == pytest.approx(numeric, rel=1e-3)

    @pytest.mark.parametrize("name", ["australian", "taylor"])
    def test_interior_estimate_needs_no_refit(self, name, request, endpoints):
        # each endpoint is one run of Newton steps from the quadratic
        # start; no means are refitted at fixed kappa on the way
        est = profile_kappa(to_long(request.getfixturevalue(name)))
        assert not est.at_boundary
        assert endpoints.refits == []
        assert len(endpoints.searches) == 2 and all(1 <= len(e.steps) <= 5 for e in endpoints.searches)

    @pytest.fixture
    def joint_fits(self, monkeypatch):
        """Forget the remembered joint fit and count the fits made."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return batch(*args, **kwargs)

        batch = dispersion._nb_mle_batch
        monkeypatch.setattr(glm, "_last_joint_fit", ((), None))
        monkeypatch.setattr(dispersion, "_nb_mle_batch", counted)
        return calls

    def test_one_joint_fit_for_profile_and_test(self, australian, joint_fits):
        recs = to_long(australian)
        est = profile_kappa(recs)
        report = overdispersion_test(recs)
        assert len(joint_fits) == 1
        assert report.kappa_mle == est.kappa_mle and report.loglik_nb == est.loglik

    def test_other_data_forces_a_new_fit(self, australian, taylor, joint_fits):
        profile_kappa(to_long(australian))
        overdispersion_test(to_long(taylor))
        overdispersion_test(to_long(australian))
        assert len(joint_fits) == 3

    def test_remembered_fit_is_a_fresh_fit(self, taylor, joint_fits):
        y, design = _prepare(to_long(taylor))
        first = _joint_fit(y, design)
        first[0][:] = 0.0
        first[1][:] = 0.0
        again = _joint_fit(y, design)
        assert len(joint_fits) == 1
        fresh = nb_mle(y, design)
        assert len(joint_fits) == 2
        for got, want in zip(again, fresh):
            assert np.array_equal(got, want)


# an estimate at the kappa cap (the profile also has a higher interior
# maximum there, which the joint fit does not find)
AT_CAP_ROWS = [[0, 4, 1, 2], [2, 0, 3], [405, 11], [18]]

# accident year 1's only nonzero count is the lone cell of development
# year 4, so the likelihood has no finite maximum
QUASI_SEPARATED = [[0, 0, 0, 0, 1], [2, 0, 4, 5], [3, 0, 1], [3, 3], [1]]

# nearly flat profiles (kappa-hat about 1.7e4 and 3.2e5) whose quadratic
# start for the upper interval endpoint lies past log KAPPA_CAP and past
# 709, where exp(theta) overflows
FLAT_PROFILE_ROWS = {
    "3x3": [[33, 23, 7], [49, 12], [32]],
    "5x5": [[345, 250, 247, 178, 131], [460, 329, 243, 189], [409, 316, 196], [455, 335], [519]],
}

# a skewed profile (kappa-hat about 580, lower endpoint about 5.6) whose
# lower endpoint's Newton steps leave their bracket from the quadratic start
SKEWED_PROFILE_ROWS = [[13, 4, 0, 3, 2], [16, 5, 0, 4], [9, 18, 1], [15, 12], [37]]


def _cold_fit(recs, family):
    """``fit`` with the remembered joint fit forgotten, as a first call makes it; the memo is restored."""
    saved = glm._last_joint_fit
    glm._last_joint_fit = ((), None)
    try:
        return fit(recs, family)
    finally:
        glm._last_joint_fit = saved


def _same_fit(a, b) -> bool:
    """Whether two fits agree bit for bit."""
    return (
        np.array_equal(a.coefficients(), b.coefficients()) and np.array_equal(a.fitted_mu, b.fitted_mu)
        and (a.loglik, a.deviance, a.deviance_path, a.phi, a.n_iter, a.converged, a.condition_number)
        == (b.loglik, b.deviance, b.deviance_path, b.phi, b.n_iter, b.converged, b.condition_number)
    )


def _check_fit_after_profile(recs):
    """``fit`` at the profiled kappa confirms the remembered fit in one step and agrees with a cold fit."""
    est = profile_kappa(recs)
    family = Family.negbin(est.kappa_mle)
    warm, cold = fit(recs, family), _cold_fit(recs, family)
    assert warm.converged and warm.n_iter == 1
    assert np.abs(np.log(warm.fitted_mu) - np.log(cold.fitted_mu)).max() <= 1e-12
    assert warm.loglik == pytest.approx(cold.loglik, rel=1e-10)
    return est


@pytest.mark.filterwarnings("ignore::nbreserve.glm.ConditioningWarning")
class TestFitAfterProfile:
    """``fit`` at the profiled kappa starts from the remembered joint fit; every other fit is cold."""

    @pytest.mark.parametrize("name", ["australian", "taylor", "at-cap"])
    def test_one_step_from_the_profile(self, name, request):
        t = RunOffTriangle.from_rows(AT_CAP_ROWS) if name == "at-cap" else request.getfixturevalue(name)
        est = _check_fit_after_profile(to_long(t))
        assert est.at_boundary == (name == "at-cap")

    def test_cap_start_is_the_refit_before_the_grid(self):
        # the plotting grid refits the profile up to the cap after the
        # start is taken; the fit is the one without the grid
        recs = to_long(RunOffTriangle.from_rows(AT_CAP_ROWS))
        fits = []
        for grid_size in (0, dispersion._GRID_SIZE):
            est = profile_kappa(recs, grid_size=grid_size)
            fits.append(fit(recs, Family.negbin(est.kappa_mle)))
        assert fits[1].n_iter == 1 and _same_fit(*fits)

    def test_other_fits_are_cold(self, australian, taylor):
        au, ta = to_long(australian), to_long(taylor)
        kappa_ta = profile_kappa(ta).kappa_mle
        kappa_au = profile_kappa(au).kappa_mle
        for recs, family in (
            (ta, Family.negbin(kappa_ta)),  # another triangle was profiled last
            (au, Family.negbin(math.nextafter(kappa_au, math.inf))),  # another kappa
            (au, Family.negbin(kappa_au * 2.0)),
            (au, Family.poisson()),
            (au, Family.quasi_poisson()),
        ):
            got = fit(recs, family)
            assert got.n_iter > 1 and _same_fit(got, _cold_fit(recs, family))

    def test_test_alone_at_the_cap_starts_fit_warm(self, monkeypatch):
        # the joint fit refits at the cap whichever function makes it, so
        # the fit after overdispersion_test alone is the fit after profiling
        recs = to_long(RunOffTriangle.from_rows(AT_CAP_ROWS))
        monkeypatch.setattr(glm, "_last_joint_fit", ((), None))
        report = overdispersion_test(recs)
        assert report.kappa_mle == KAPPA_CAP
        family = Family.negbin(report.kappa_mle)
        alone = fit(recs, family)
        assert alone.n_iter == 1
        profile_kappa(recs)
        assert _same_fit(alone, fit(recs, family))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(3, 9),
    kappa=st.sampled_from([1.0, 5.0, 30.0, math.inf]),
    test_first=st.booleans(),
)
def test_fit_after_profile_on_staircases(seed, dimension, kappa, test_first):
    # in either order, overdispersion_test and profile_kappa read one
    # remembered joint fit: the same kappa and the profile's maximum
    rows = _gamma_poisson_rows(np.random.default_rng(seed), dimension, kappa)
    assume(rows is not None)
    recs = to_long(RunOffTriangle.from_rows(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", glm.ConditioningWarning)
        first = overdispersion_test(recs) if test_first else None
        est = _check_fit_after_profile(recs)
        report = first or overdispersion_test(recs)
    assert (report.kappa_mle, report.loglik_nb) == (est.kappa_mle, est.loglik)


def _gamma_poisson_rows(rng: np.random.Generator, dimension: int, kappa: float):
    """Rows of a gamma-Poisson triangle with dispersion ``kappa`` (inf: Poisson).

    None when an accident or development year sums to zero.
    """
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
    return rows if np.all(cols > 0) and all(sum(r) > 0 for r in rows) else None


class TestEndpointSolve:
    """Each interval endpoint as one bracketed run of Newton steps, and the refits that narrow its bracket."""

    @pytest.mark.parametrize("seed", range(12))
    def test_endpoint_on_profile_at_the_cut(self, seed, endpoints):
        # a finite endpoint's coefficients have a zero score, so the point
        # is on the profile, and a cold fit there sits 3.841 / 2 below
        # the maximum
        rng = np.random.default_rng([seed, 11])
        rows = None
        while rows is None:
            rows = _gamma_poisson_rows(rng, int(rng.integers(5, 11)), float(rng.uniform(2.0, 50.0)))
        recs = to_long(RunOffTriangle.from_rows(rows))
        y, design = _prepare(recs)
        est = profile_kappa(recs)
        solved = {e.kappa: e for e in endpoints.searches if e.refits == []}
        finite = [bound for bound in est.ci95 if KAPPA_MIN < bound < KAPPA_CAP]
        assert finite
        for bound in finite:
            mu = solved[bound].mu
            score = design.X.T @ (bound * (y - mu) / (bound + mu))
            assert np.abs(score).max() <= 1e-9 * y.sum()
            assert 2 * (est.loglik - fit(recs, Family.negbin(bound)).loglik) == pytest.approx(CHI2_1_95, abs=1e-7)
            assert solved[bound].loglik == pytest.approx(est.loglik - 0.5 * CHI2_1_95, abs=1e-8)

    @pytest.mark.parametrize("rows", [None, NEAR_SEPARATED], ids=["australian", "near-separated"])
    def test_bracketed_fallback(self, rows, australian, endpoints, monkeypatch):
        # a run allowed a single step does not settle, so every endpoint
        # falls back to the refit at the bound and the bracket's midpoints,
        # which must find the same interval
        recs = to_long(australian if rows is None else RunOffTriangle.from_rows(rows))
        solved = profile_kappa(recs)
        monkeypatch.setattr(dispersion, "_ENDPOINT_STEPS", 1)
        del endpoints.searches[:]
        searched = profile_kappa(recs)
        assert [e.refits[0] for e in endpoints.searches] == [KAPPA_MIN, KAPPA_CAP]
        assert all(len(e.refits) > 1 for e in endpoints.searches)
        assert (searched.kappa_mle, searched.loglik) == (solved.kappa_mle, solved.loglik)
        assert np.allclose(np.log(searched.ci95), np.log(solved.ci95), rtol=0.0, atol=1e-8)

    def test_bracket_without_steps_ends_in_an_error(self, australian, endpoints, monkeypatch):
        # with no Newton step allowed nothing settles: the midpoint refits
        # halve the bracket until it is two adjacent floats, then give up
        monkeypatch.setattr(dispersion, "_ENDPOINT_STEPS", 0)
        with pytest.raises(NotConvergedError, match="did not settle"):
            profile_kappa(to_long(australian))
        assert endpoints.steps[1:] == [] and endpoints.refits[0] == KAPPA_MIN and len(endpoints.refits) < 100

    @pytest.mark.parametrize(
        "rows, at_cap, steps",
        [(SKEWED_PROFILE_ROWS, False, None), ([[4, 589, 988], [10, 151], [48]], True, 1)],
        ids=["interior", "at-cap"],
    )
    def test_solve_leaving_its_bracket_falls_back(self, rows, at_cap, steps, endpoints, monkeypatch):
        # the lower endpoint's steps leave their bracket from the quadratic
        # start of a skewed profile; the steps for an estimate at the cap
        # settle from its large-kappa start, so a one-step budget makes
        # them fail. The steps resumed from the refit at KAPPA_MIN find
        # the endpoint the steps alone find
        recs = to_long(RunOffTriangle.from_rows(rows))
        solved = profile_kappa(recs)
        if steps is not None:
            monkeypatch.setattr(dispersion, "_ENDPOINT_STEPS", steps)
        del endpoints.searches[:]
        est = profile_kappa(recs)
        assert est.at_boundary == at_cap
        assert endpoints.searches[0].refits[:1] == [KAPPA_MIN]
        assert np.allclose(np.log(est.ci95), np.log(solved.ci95), rtol=0.0, atol=1e-8)
        lower = est.ci95[0]
        assert KAPPA_MIN < lower < est.kappa_mle
        assert 2 * (est.loglik - _cold_fit(recs, Family.negbin(lower)).loglik) == pytest.approx(CHI2_1_95, abs=1e-6)

    @pytest.mark.parametrize(
        "rows", [FLAT_PROFILE_ROWS["3x3"], FLAT_PROFILE_ROWS["5x5"], SKEWED_PROFILE_ROWS],
        ids=["flat-3x3", "flat-5x5", "skewed"],
    )
    def test_hard_interval_takes_at_most_two_refits(self, rows, endpoints):
        # a lower start far below the search range or steps leaving their
        # bracket cost one refit at the bound, from which the steps settle;
        # a flat profile's upper endpoint is the cap, after one refit there
        recs = to_long(RunOffTriangle.from_rows(rows))
        est = profile_kappa(recs)
        assert not est.at_boundary and len(endpoints.refits) <= 2
        finite = [bound for bound in est.ci95 if KAPPA_MIN < bound < KAPPA_CAP]
        assert finite
        for bound in finite:
            assert 2 * (est.loglik - _cold_fit(recs, Family.negbin(bound)).loglik) == pytest.approx(CHI2_1_95, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_estimate_at_the_cap_solves_its_lower_endpoint_directly(self, seed, endpoints):
        # a Poisson triangle whose estimate is the cap: one refit there,
        # then the lower endpoint's steps from the large-kappa expansion
        # settle on the profile at the cut
        rng = np.random.default_rng([seed, 12])
        while True:
            rows = _gamma_poisson_rows(rng, int(rng.integers(4, 13)), math.inf)
            if rows is not None:
                recs = to_long(RunOffTriangle.from_rows(rows))
                y, design = _prepare(recs)
                if nb_mle(y, design)[3]:
                    break
        del endpoints.refits[:]
        est = profile_kappa(recs)
        assert est.at_boundary and endpoints.refits == [KAPPA_CAP]
        lower = est.ci95[0]
        assert KAPPA_MIN < lower and est.ci95[1] == KAPPA_CAP
        search = endpoints.searches[-1]
        assert search.kappa == lower and search.refits == []
        score = design.X.T @ (lower * (y - search.mu) / (lower + search.mu))
        assert np.abs(score).max() <= 1e-9 * y.sum()
        assert 2 * (est.loglik - fit(recs, Family.negbin(lower)).loglik) == pytest.approx(CHI2_1_95, abs=1e-6)

    @pytest.mark.parametrize(
        "name, lower", [("3x3", 6.926342817309498), ("5x5", 182.58460051512256)], ids=["3x3", "5x5"]
    )
    def test_start_past_the_cap_is_not_evaluated(self, name, lower, endpoints):
        # the upper endpoint's steps decline their start, and one refit at
        # the cap finds the profile above the cut there; no step evaluates
        # a kappa past the cap
        est = profile_kappa(to_long(RunOffTriangle.from_rows(FLAT_PROFILE_ROWS[name])))
        assert not est.at_boundary and len(endpoints.searches) == 2
        upper = endpoints.searches[1]
        assert upper.steps == [] and upper.refits == [KAPPA_CAP] and est.ci95[1] == KAPPA_CAP
        assert max(endpoints.steps) <= KAPPA_CAP
        assert est.ci95[0] == pytest.approx(lower, rel=1e-9)

    @pytest.mark.parametrize(
        "name, lower", [("3x3", 6.926342817309498), ("5x5", 182.58460051512256)], ids=["3x3", "5x5"]
    )
    def test_start_below_the_floor_is_not_evaluated(self, name, lower, endpoints):
        # the lower endpoint's quadratic start lies near theta = -950,
        # where exp(theta) is 0.0: the steps decline it, and the first
        # kappa the search evaluates is the refit's at KAPPA_MIN, from
        # which the steps settle; no step evaluates a kappa of 0.0
        est = profile_kappa(to_long(RunOffTriangle.from_rows(FLAT_PROFILE_ROWS[name])))
        assert not est.at_boundary and len(endpoints.searches) == 2
        below = endpoints.searches[0]
        assert below.refits == [KAPPA_MIN]
        assert below.steps[0] == min(below.steps) == pytest.approx(KAPPA_MIN, rel=1e-12)
        assert min(endpoints.steps) > 0.0
        assert est.ci95[0] == pytest.approx(lower, rel=1e-9)

    def test_start_modestly_below_the_floor_is_stepped_from(self, endpoints):
        # a lower start near theta = -9.2, below log KAPPA_MIN but where
        # exp(theta) is a normal float, still takes its steps, which settle
        # inside the bracket with no refit (a refit at the bound first
        # would move the endpoint in its last digits)
        rows = [[102, 131, 56, 49, 18, 18], [89, 102, 75, 67, 29], [94, 149, 66, 58], [103, 186, 86], [104, 140], [141]]
        est = profile_kappa(to_long(RunOffTriangle.from_rows(rows)))
        below = endpoints.searches[0]
        assert below.refits == [] and below.steps[0] < KAPPA_MIN
        assert KAPPA_MIN < est.ci95[0] == below.kappa < est.kappa_mle

    def test_endpoint_at_the_cap_takes_one_refit_there(self, monkeypatch):
        # an interior estimate (kappa about 132) whose profile stays above
        # the cut up to KAPPA_CAP: the iteration leaves the search range,
        # and one refit at the cap decides
        recs = to_long(RunOffTriangle.from_rows([[75, 48, 72, 93], [108, 48, 107], [271, 70], [168]]))
        refits = []

        def counted(y, design, family, start=None):
            refits.append(family.kappa)
            return refit(y, design, family, start=start)

        refit = dispersion._irls
        monkeypatch.setattr(dispersion, "_irls", counted)
        est = profile_kappa(recs)
        assert not est.at_boundary and KAPPA_MIN < est.ci95[0]
        assert est.ci95[1] == KAPPA_CAP
        assert refits == [KAPPA_CAP]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(4, 7),
    kappa=st.sampled_from([1.0, 5.0, 30.0, math.inf]),
)
def test_profile_no_lower_than_fixed_kappa_fits(seed, dimension, kappa):
    # the profile maximum is at least the best negative binomial fit on a
    # kappa grid, whatever the triangle
    rows = _gamma_poisson_rows(np.random.default_rng(seed), dimension, kappa)
    assume(rows is not None)
    recs = to_long(RunOffTriangle.from_rows(rows))
    est = profile_kappa(recs)
    best = max(fit(recs, Family.negbin(k)).loglik for k in np.geomspace(0.1, 1e6, 16))
    assert est.loglik >= best - 1e-6


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(4, 8),
    kappa=st.sampled_from([2.0, 20.0, 200.0, math.inf]),
    order=st.permutations(["bootstrap", "profile", "test"]),
)
def test_one_kappa_whichever_runs_first(seed, dimension, kappa, order):
    # the bootstrap's base fit, the profile and the test read one joint
    # fit, whichever of them fits it and whichever read it last
    rows = _gamma_poisson_rows(np.random.default_rng(seed), dimension, kappa)
    assume(rows is not None)
    t = RunOffTriangle.from_rows(rows)
    recs = to_long(t)
    calls = {
        "bootstrap": lambda: bootstrap(t, b=100, seed=0, workers=1),
        "profile": lambda: profile_kappa(recs),
        "test": lambda: overdispersion_test(recs),
    }
    glm._last_joint_fit = ((), None)
    out = {name: calls[name]() for name in order}
    assert out["bootstrap"].kappa_mle == out["profile"].kappa_mle == out["test"].kappa_mle
    assert out["bootstrap"].kappa_adj == out["profile"].kappa_adj


@st.composite
def nb_batches(draw):
    """A triangle design and a batch of count rows of mixed kinds.

    Rows are overdispersed, Poisson (whose fit stops at the cap),
    wildly overdispersed (kappa 0.05, many zero cells) or overdispersed
    with one accident or development year zeroed, baselines included:
    any one level, accident year 1, development year 0, or both
    baselines.
    The joint fit does not reach KAPPA_MIN on counts: there the kappa
    score is about the number of positive cells over KAPPA_MIN.
    """
    dim = draw(st.integers(4, 8))
    (ay, dy), _ = triangle_cells(dim)
    design = build_design(ay + 1, dy, dim, dim)
    kinds = draw(st.lists(
        st.sampled_from(["nb", "poisson", "wild", "dropped", "ay1", "dy0", "both"]), min_size=5, max_size=5
    ))
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
        if kind in ("ay1", "both"):
            y[ay == 0] = 0.0
        if kind in ("dy0", "both"):
            y[dy == 0] = 0.0
        rows.append(y)
    return np.array(rows), design


def _kernel(Y, design):
    """The joint kernel on ``Y`` from the chain-ladder fit that decides its kept levels, as every caller starts it."""
    return _nb_mle_batch(Y, design, glm._chain_ladder_batch(Y, design))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(batch=nb_batches())
def test_one_joint_estimator(batch):
    # each row's fit is the same whatever rows share its batch: a row that
    # drops nothing gets the one-row kernel's fit, which builds no masks,
    # even in a batch masked for other rows; that is nb_mle's below the
    # cap, and at the cap nb_mle refits the row's means there
    Y, design = batch
    mask, pin = drop_pattern(Y, design)
    out = _kernel(Y, design)
    coef, mu, kappa, ok, _ = out
    # each fitted row holds its dropped levels' coefficients, and a
    # dropped baseline's successor's, at exactly zero
    assert np.all(coef[pin & ok[:, None]] == 0.0)
    for r in range(len(Y)):
        for got, want in zip(out, _kernel(Y[r : r + 1], design)):
            assert np.array_equal(got[r], want[0], equal_nan=True)
        if not mask[r].all():
            continue
        if ok[r]:
            c, m, k, at_boundary = nb_mle(Y[r], design)
            assert k == kappa[r] and at_boundary == (k == KAPPA_CAP)
            want_c, want_m = coef[r], mu[r]
            if at_boundary:
                want_c, want_m, _, _, converged, _ = _irls(Y[r], design, Family.negbin(KAPPA_CAP), start=coef[r])
                assert converged
            assert np.array_equal(c, want_c) and np.array_equal(m, want_m)
        else:
            with pytest.raises(NotConvergedError):
                nb_mle(Y[r], design)
    # converged rows below the cap sit at the joint maximum
    inner = ok & (kappa < KAPPA_CAP)
    k, m = kappa[inner], mu[inner] * mask[inner]
    s = k[:, None] * (Y[inner] - m) / (k[:, None] + m) * mask[inner]
    assert np.all(np.abs(s @ design.X).max(axis=1) <= 1e-9 * Y[inner].sum(axis=1))
    assert np.all(np.abs(k * _kappa_score(Y[inner], m, k)) <= 1e-9)


def test_kernel_leaves_its_poisson_start_unchanged(australian):
    # the kernel copies the Poisson fit a caller hands it: the caller's
    # arrays come back as they went in, and every output is the one the
    # kernel gives from a fresh chain-ladder fit, on a masked batch too
    y, design = _prepare(to_long(australian))
    Y = np.array([y, np.where(design.dy_idx == 0, 0.0, y)])
    for rows in (Y[:1], Y):
        poisson = glm._chain_ladder_batch(rows, design)
        before = [a.copy() for a in poisson]
        out = _nb_mle_batch(rows, design, poisson=poisson)
        for got, want in zip(poisson, before):
            assert np.array_equal(got, want)
        for got, want in zip(out, _kernel(rows, design)):
            assert np.array_equal(got, want)


def test_whole_steps_halvings_and_failures_share_a_batch(monkeypatch):
    # replicates of the near-separated [[0, 0, 10, 1052], [1872, 0, 0],
    # [0, 373], [193]], drawn from its fit: the second row keeps 7 of its
    # 10 cells and halves some Newton steps, the third has a Poisson fit
    # but a likelihood rising without bound, the others take every whole
    # step; in one batch each row's fit is its one-row fit, bit for bit
    t = RunOffTriangle.from_rows([[0, 0, 10, 1052], [1872, 0, 0], [0, 373], [193]])
    _, design = _prepare(to_long(t))
    Y = np.array([
        [0, 0, 3, 29, 171, 3, 283, 0, 52, 20],
        [1, 0, 0, 384, 216, 5, 0, 4, 4705, 0],
        [0, 0, 72, 313, 3832, 0, 0, 0, 23, 6],
        [1, 0, 0, 239, 675, 2, 53, 58, 31, 3],
    ], dtype=float)
    evaluated = []  # the rows of each call of glm._rows_dot: the Poisson start's, then each candidate step's
    rows_dot = glm._rows_dot
    monkeypatch.setattr(glm, "_rows_dot", lambda X, coef: (evaluated.append(len(coef)), rows_dot(X, coef))[1])
    alone, halved = [], []
    for r in range(len(Y)):
        evaluated.clear()
        alone.append(_kernel(Y[r : r + 1], design))
        halved.append(len(evaluated) - 1 > alone[-1][4][0])
    assert halved == [False, True, True, False]
    assert [fit[3][0] for fit in alone] == [True, True, False, True]
    assert glm._chain_ladder_batch(Y, design)[2].all()
    for got, want in zip(_kernel(Y, design), zip(*alone)):
        for r in range(len(Y)):
            assert np.array_equal(got[r], want[r][0], equal_nan=True)


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

    def test_maximizer_at_the_cap_on_poisson_data(self):
        # the adjusted profile still rises at the last grid point
        rows = [[706, 462, 327, 197, 153, 127], [679, 432, 320, 203, 180], [719, 472, 324, 225],
                [695, 497, 323], [680, 458], [730]]
        assert maximize_adjusted_profile(to_long(RunOffTriangle.from_rows(rows))) == KAPPA_CAP


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


class TestMomentStart:
    """The joint fit from the closed-form moment start ends at the joint maximum."""

    # a draw with a zero cell of tiny Poisson mean among large counts: the
    # Pearson excess exceeds 1e3 n, the moment start is clipped to KAPPA_MIN,
    # and the fit leaves the floor (kappa about 0.15)
    FLOOR_START = [[0, 0, 10, 1052], [1872, 0, 0], [0, 373], [193]]

    @staticmethod
    def check_rows(Y, design, mask=None, pin=None):
        """Each converged row's kappa maximises the likelihood at its means, whose coefficient score is zero.

        ``mask`` and ``pin`` are the rows' drop pattern (``drop_pattern``), which the kernel derives itself.
        """
        coef, mu, kappa, ok, n_iter = _kernel(Y, design)
        assert np.all(n_iter[ok] < _IRLS_MAX_ITER)
        for r in np.nonzero(ok)[0]:
            y, k = Y[r], float(kappa[r])
            m = mu[r] if mask is None else mu[r] * mask[r]
            solved = solve_kappa(y, m, k)
            if k == KAPPA_CAP:
                assert solved == KAPPA_CAP
                continue
            # the score's rounding error, near 1e-13 (see _kappa_score), moves
            # its root by about kappa * 1e-13 / |h| in log kappa, h its slope
            s, s_kappa = _kappa_score(y, m, k, deriv=True)
            band = k * 1e-13 / abs(k * s + k * k * s_kappa)
            assert abs(math.log(solved / k)) <= 1e-8 + band
            score = design.X.T @ (k * (y - m) / (k + m))
            if pin is not None:
                score = score * ~pin[r]
            assert np.abs(score).max() <= 1e-11 * max(y.sum(), 1.0)
        return ok

    def test_large_kappa_moment_where_pearson_is_degenerate(self):
        y, design = _prepare(to_long(RunOffTriangle.from_rows(TestKappaSolve.CAP_START[0])))
        _, mu, *_ = _irls(y, design, Family.poisson())
        s = np.sum((y - mu) ** 2 - y)
        assert s > 0
        assert _start_kappa(y[None], mu[None]).tolist() == [np.sum(mu * mu) / s]
        # counts equal to their means are at the Poisson boundary
        assert _start_kappa(mu[None], mu[None]).tolist() == [KAPPA_CAP]

    @pytest.mark.parametrize(
        "rows",
        TestKappaSolve.CAP_START + [NEAR_SEPARATED, FLOOR_START, TestKappaSolve.FLAT_TOP, TestKappaSolve.NEAR_POISSON],
        ids=["cap-start-10", "cap-start-11", "near-separated", "floor-start", "flat-top", "near-poisson"],
    )
    def test_fixed_triangles(self, rows):
        y, design = _prepare(to_long(RunOffTriangle.from_rows(rows)))
        assert self.check_rows(y[None], design).all()

    def test_floor_start(self):
        y, design = _prepare(to_long(RunOffTriangle.from_rows(self.FLOOR_START)))
        _, mu, *_ = _irls(y, design, Family.poisson())
        assert _start_kappa(y[None], mu[None]).tolist() == [KAPPA_MIN]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(batch=nb_batches())
    def test_random_rows(self, batch):
        Y, design = batch
        mask, pin = drop_pattern(Y, design)
        ok = self.check_rows(Y, design, mask, pin)
        assert ok.sum() >= 3

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dimension=st.integers(3, 10))
    def test_poisson_compatible(self, seed, dimension):
        rows = _gamma_poisson_rows(np.random.default_rng(seed), dimension, math.inf)
        assume(rows is not None)
        y, design = _prepare(to_long(RunOffTriangle.from_rows(rows)))
        assert self.check_rows(y[None], design).all()
