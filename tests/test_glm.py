import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from nbreserve import Family, chain_ladder, fit, nb_loglik, pearson_dispersion, poisson_loglik, to_long, to_simplex
from nbreserve.glm import ConditioningWarning, build_design, score
from nbreserve.errors import MissingCellError, SeparationError
from conftest import QUASI_SEPARATED, drop_pattern, kept_design, kept_levels, positive_table_exists, random_triangle


def future_sum(model):
    I = model.n_ay
    return sum(model.mu_at(i, j) for i in range(1, I + 1) for j in range(I - i + 1, I))


class TestLoglik:
    def test_poisson_matches_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            mu = rng.uniform(0.1, 50, size=12)
            y = rng.poisson(mu)
            ours = poisson_loglik(y, mu)
            ref = stats.poisson.logpmf(y, mu).sum()
            assert ours == pytest.approx(ref, rel=1e-12)

    def test_negbin_matches_scipy(self):
        # scipy parameterises by (n, p) with n = kappa, p = kappa / (kappa + mu)
        rng = np.random.default_rng(2)
        for _ in range(10):
            mu = rng.uniform(0.1, 50, size=12)
            kappa = rng.uniform(0.5, 30)
            y = rng.poisson(mu)
            ours = nb_loglik(y, mu, kappa)
            ref = stats.nbinom.logpmf(y, kappa, kappa / (kappa + mu)).sum()
            assert ours == pytest.approx(ref, rel=1e-10)

    def test_large_kappa_approaches_poisson(self):
        # 1e8 is the dispersion search cap; far beyond it the gammaln
        # difference loses precision, which is why the cap exists
        y = np.array([3, 0, 7, 12, 1])
        mu = np.array([2.5, 0.4, 8.0, 11.0, 1.5])
        assert nb_loglik(y, mu, 1e8) == pytest.approx(poisson_loglik(y, mu), abs=1e-4)

    @pytest.mark.parametrize("kappa", [1e3, 1e4, 1e5, 1e6, 1e7, 7.5e7, 1e8])
    def test_negbin_accurate_at_large_kappa(self, australian, kappa):
        # against 40-digit arithmetic; summed from gammaln(y + kappa) -
        # gammaln(kappa), the error reached 5e-6 at kappa = 7.5e7
        model = fit(to_long(australian), Family.poisson())
        y, mu = model.y, model.fitted_mu
        with mpmath.workdps(40):
            k = mpmath.mpf(kappa)
            exact = mpmath.fsum(
                mpmath.loggamma(a + k) - mpmath.loggamma(k) - mpmath.loggamma(a + 1)
                + k * mpmath.log(k / (k + m)) + a * mpmath.log(m / (k + m))
                for a, m in zip(map(mpmath.mpf, y), map(mpmath.mpf, mu))
            )
            assert abs(nb_loglik(y, mu, kappa) - float(exact)) <= 1e-8

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            nb_loglik([1], [1.0], 0.0)

    def test_zero_counts_finite(self):
        assert np.isfinite(nb_loglik([0, 0], [0.5, 3.0], 2.0))
        assert np.isfinite(poisson_loglik([0, 0], [0.5, 3.0]))


class TestFamily:
    def test_constructors(self):
        assert Family.poisson().tag == "poisson"
        assert Family.quasi_poisson().tag == "quasipoisson"
        nb = Family.negbin(4.8)
        assert nb.tag == "negbin" and nb.kappa == 4.8
        with pytest.raises(ValueError):
            Family.negbin(-1.0)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan, 0.0, -1.0])
    def test_negbin_needs_positive_finite_kappa(self, kappa):
        # the kappa -> infinity limit is the Poisson family, named as such
        with pytest.raises(ValueError, match=r"positive and finite.*Family\.poisson\(\)"):
            Family.negbin(kappa)
        with pytest.raises(ValueError, match="positive and finite"):
            nb_loglik([1.0, 2.0], [1.5, 2.5], kappa)

    def test_variance_functions(self):
        mu = np.array([2.0, 10.0])
        assert Family.poisson().variance(mu) == pytest.approx(mu)
        assert Family.negbin(5.0).variance(mu) == pytest.approx(mu + mu**2 / 5.0)

    def test_deviance_zero_at_saturation(self):
        y = np.array([3.0, 5.0, 0.0, 9.0])
        assert Family.poisson().deviance(y, np.maximum(y, 1e-12)) == pytest.approx(0.0, abs=1e-8)
        assert Family.negbin(3.0).deviance(y, np.maximum(y, 1e-12)) == pytest.approx(0.0, abs=1e-8)


class TestPoissonFit:
    def test_matches_chain_ladder(self, australian):
        model = fit(to_long(australian), Family.poisson())
        assert model.converged
        cl = chain_ladder(australian).total_reserve
        assert future_sum(model) == pytest.approx(cl, rel=1e-8)

    def test_fitted_means_positive(self, australian):
        model = fit(to_long(australian), Family.poisson())
        assert np.all(model.fitted_mu > 0)

    def test_margin_preservation(self, australian):
        # log-link Poisson with row/column factors reproduces every margin
        model = fit(to_long(australian), Family.poisson())
        y, mu = model.y, model.fitted_mu
        for i in range(1, model.n_ay + 1):
            sel = model.ay == i
            assert y[sel].sum() == pytest.approx(mu[sel].sum(), rel=1e-10)
        for j in range(model.n_dy):
            sel = model.dy == j
            assert y[sel].sum() == pytest.approx(mu[sel].sum(), rel=1e-10)

    def test_deviance_path_monotone(self, australian):
        model = fit(to_long(australian), Family.poisson())
        path = np.asarray(model.deviance_path)
        assert np.all(np.diff(path) <= 1e-9)

    def test_deviance_path_monotone_random(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            t = random_triangle(rng, int(rng.integers(3, 9)))
            model = fit(to_long(t), Family.poisson())
            path = np.asarray(model.deviance_path)
            assert model.converged
            assert np.all(np.diff(path) <= 1e-9 * max(1.0, path[0]))

    @pytest.mark.parametrize("name", ["australian", "taylor"])
    @pytest.mark.parametrize(
        "family, scale",
        [(f, s) for f in (Family.poisson(), Family.quasi_poisson()) for s in (1e3, 1e5)]
        + [(Family.negbin(1.0), 1e4), (Family.negbin(1e8), 1e4)],
        ids=lambda v: (v.tag if v.kappa is None else f"negbin{v.kappa:g}") if isinstance(v, Family) else None,
    )
    def test_converges_at_any_scale(self, request, name, scale, family):
        # amounts in cents or a large book's triangle: the stop must not
        # depend on the size of the counts, for the Poisson or for the
        # negative binomial at any kappa up to the cap
        from nbreserve import RunOffTriangle

        t = request.getfixturevalue(name)
        I = t.dimension
        scaled = RunOffTriangle.from_rows(
            [[round(t.cell(i, j) * scale) for j in range(I - i + 1)] for i in range(1, I + 1)]
        )
        model = fit(to_long(scaled), family)
        assert model.converged and model.n_iter <= 8
        weight = np.sum(family.working_weight(model.fitted_mu))
        assert np.abs(score(model)).max() <= 1e-12 * weight
        if family.tag != "negbin":
            assert future_sum(model) == pytest.approx(chain_ladder(scaled).total_reserve, rel=1e-8)

    def test_permutation_equivariance(self, australian):
        recs = to_long(australian)
        rng = np.random.default_rng(31)
        base = fit(recs, Family.poisson())
        for _ in range(5):
            perm = [recs[k] for k in rng.permutation(len(recs))]
            other = fit(perm, Family.poisson())
            assert other.coefficients() == pytest.approx(base.coefficients(), rel=1e-12, abs=1e-12)

    def test_condition_number_reported(self, australian):
        with pytest.warns(ConditioningWarning):
            model = fit(to_long(australian), Family.poisson())
        assert model.condition_number > 1e3


class TestNegbinFit:
    def test_loglik_consistent(self, australian):
        model = fit(to_long(australian), Family.negbin(4.8))
        assert model.loglik == pytest.approx(nb_loglik(model.y, model.fitted_mu, 4.8), rel=1e-12)

    def test_future_sum_frozen(self, australian):
        # regression anchor: the NB fitted future total sits well above
        # the chain-ladder projection on this triangle
        model = fit(to_long(australian), Family.negbin(4.799976865655617))
        assert future_sum(model) == pytest.approx(3589.3319, abs=0.01)

    def test_small_kappa_changes_fit(self, australian):
        pois = fit(to_long(australian), Family.poisson())
        nb = fit(to_long(australian), Family.negbin(0.5))
        assert np.max(np.abs(nb.fitted_mu - pois.fitted_mu)) > 1.0


class TestQuasiPoisson:
    def test_means_match_poisson(self, australian):
        qp = fit(to_long(australian), Family.quasi_poisson())
        pois = fit(to_long(australian), Family.poisson())
        assert qp.fitted_mu == pytest.approx(pois.fitted_mu, rel=1e-12)

    def test_phi_is_pearson_dispersion(self, australian):
        qp = fit(to_long(australian), Family.quasi_poisson())
        assert qp.phi == pytest.approx(174.034, abs=0.01)
        assert qp.phi == pytest.approx(pearson_dispersion(qp), rel=1e-12)

    def test_poisson_phi_none(self, australian):
        assert fit(to_long(australian), Family.poisson()).phi is None


class TestSimplex:
    def test_weights_sum_to_one(self, australian):
        for fam in (Family.poisson(), Family.negbin(4.8)):
            model = fit(to_long(australian), fam)
            assert model.dev_weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(model.dev_weights > 0)

    def test_means_invariant(self, australian):
        # both parameterisations give identical cell means
        model = fit(to_long(australian), Family.poisson())
        X = build_design(model.ay, model.dy, model.n_ay, model.n_dy).X
        mu_contrast = np.exp(X @ model.coefficients())
        mu_simplex = np.array([model.mu_at(i, j) for i, j in zip(model.ay, model.dy)])
        assert mu_simplex == pytest.approx(mu_contrast, rel=1e-12)
        assert mu_simplex == pytest.approx(model.fitted_mu, rel=1e-12)

    def test_means_invariant_random(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            t = random_triangle(rng, int(rng.integers(3, 9)))
            model = fit(to_long(t), Family.poisson())
            mu = np.array([model.mu_at(i, j) for i, j in zip(model.ay, model.dy)])
            assert mu == pytest.approx(model.fitted_mu, rel=1e-12)

    def test_to_simplex_stable(self, australian):
        model = fit(to_long(australian), Family.poisson())
        again = to_simplex(model)
        assert again.simplex_alpha == pytest.approx(model.simplex_alpha, rel=1e-14)
        assert again.dev_weights == pytest.approx(model.dev_weights, rel=1e-14)


class TestScore:
    @staticmethod
    def _probe(model, theta):
        X = build_design(model.ay, model.dy, model.n_ay, model.n_dy).X
        mu = np.exp(X @ theta)
        return dataclasses.replace(model, fitted_mu=mu), mu

    def test_zero_at_mle(self, australian):
        # gradient should vanish relative to the scale of the counts
        for fam in (Family.poisson(), Family.negbin(4.8)):
            model = fit(to_long(australian), fam)
            assert np.max(np.abs(score(model))) < 1e-8 * model.y.sum()

    @pytest.mark.parametrize("name", ["australian", "taylor"])
    @pytest.mark.parametrize("family", [Family.poisson(), Family.negbin(5.0)], ids=["poisson", "negbin"])
    def test_at_rounding_level(self, request, name, family):
        # the NB Newton fit stops at a decrement at rounding level; the
        # Fisher-scoring NB fit left 6e-9 of the largest count on Australian
        model = fit(to_long(request.getfixturevalue(name)), family)
        assert np.max(np.abs(score(model))) <= 1e-12 * model.y.max()

    @pytest.mark.parametrize("tag", ["poisson", "negbin"])
    def test_matches_finite_differences(self, australian, tag):
        fam = Family.poisson() if tag == "poisson" else Family.negbin(3.7)
        model = fit(to_long(australian), fam)
        rng = np.random.default_rng(41)
        h = 1e-5

        def loglik(theta):
            _, mu = self._probe(model, theta)
            if tag == "poisson":
                return poisson_loglik(model.y, mu)
            return nb_loglik(model.y, mu, 3.7)

        for _ in range(5):
            theta = model.coefficients() + rng.normal(0, 0.1, size=model.n_params)
            probe, _ = self._probe(model, theta)
            analytic = score(probe)
            for k in rng.choice(model.n_params, size=4, replace=False):
                e = np.zeros(model.n_params)
                e[k] = h
                fd = (loglik(theta + e) - loglik(theta - e)) / (2 * h)
                assert analytic[k] == pytest.approx(fd, rel=1e-4, abs=1e-4)


class TestDegenerateInputs:
    def test_zero_accident_year_row(self):
        # a fully zero accident year drives its effect to -inf; the error
        # names the first level the chain-ladder drops, accident years
        # first, by its 0-based index
        for rows, name in [
            ([[5, 3, 2], [0, 0], [4]], "accident year level 1"),
            ([[5, 0, 2], [3, 0], [4]], "development year level 1"),
            ([[5, 0, 2], [3, 0], [0]], "accident year level 2"),
        ]:
            with pytest.raises(SeparationError) as got:
                fit(to_long_rows(rows), Family.poisson())
            assert str(got.value) == f"{name} has all-zero counts; its coefficient diverges"

    @pytest.mark.parametrize("name", sorted(QUASI_SEPARATED))
    @pytest.mark.parametrize(
        "family", [Family.poisson(), Family.quasi_poisson(), Family.negbin(5.0)], ids=["poisson", "odp", "nb"]
    )
    def test_quasi_separated_has_no_fit(self, name, family):
        # every year has a count, yet no family has a finite maximum: the
        # cold fit refuses the triangle before its Newton steps drift, on
        # every CPU target (tests/test_cpu_targets.py)
        with pytest.raises(SeparationError, match="no finite maximum"):
            fit(to_long_rows(QUASI_SEPARATED[name]), family)

    def test_missing_level(self, australian):
        recs = [r for r in to_long(australian) if r.ay != 3]
        with pytest.raises(MissingCellError, match=r"observed cell \(3, 0\) missing"):
            fit(recs, Family.poisson())

    def test_too_few_observations(self):
        # two records cannot be a triangle's three cells
        from nbreserve import CellRecord

        recs = [CellRecord(1, 0, 5), CellRecord(2, 1, 4)]
        with pytest.raises(MissingCellError, match=r"observed cell \(1, 1\) missing"):
            fit(recs, Family.poisson())

    def test_row_total_of_2_pow_53_is_too_large(self):
        # every cell is a legal count, but accident year 1's total is not
        # exact in float64: every entry point names the year and its total
        from nbreserve import RunOffTriangle, bootstrap, chain_ladder, cumulate, overdispersion_test, profile_kappa
        from nbreserve.errors import BaseFitFailedError, CountTooLargeError
        from nbreserve.glm import _prepare

        t = RunOffTriangle.from_rows([[2**52, 2**52, 1], [1, 1], [1]])
        recs = to_long(t)
        message = f"accident year 1: total {2**53 + 1} is 2**53 or more"
        calls = [lambda f=f: fit(recs, f) for f in (Family.poisson(), Family.quasi_poisson(), Family.negbin(5.0))]
        calls += [lambda: profile_kappa(recs), lambda: overdispersion_test(recs), lambda: chain_ladder(t)]
        calls += [lambda: cumulate(t)]
        for call in calls:
            with pytest.raises(CountTooLargeError) as got:
                call()
            assert str(got.value) == message
        with pytest.raises(BaseFitFailedError) as got:
            bootstrap(t, b=100)
        assert type(got.value.__cause__) is CountTooLargeError and str(got.value.__cause__) == message
        # a total of 2**53 - 1 is exact
        _prepare(to_long_rows([[2**52, 2**52 - 2, 1], [1, 1], [1]]))

    @pytest.mark.parametrize("rows", [[[3, 1], [33]], [[1, 2], [2]]], ids=["residuals", "no-residuals"])
    def test_two_by_two_has_no_residual_dof(self, rows):
        # three cells for three parameters: the ODP phi and the kappa
        # correction are undefined whatever the Poisson residuals' rounding;
        # the Poisson fits
        from nbreserve import RunOffTriangle, bootstrap, profile_kappa
        from nbreserve.errors import BaseFitFailedError, NoResidualDofError

        t = RunOffTriangle.from_rows(rows)
        recs = to_long(t)
        for call in (lambda: fit(recs, Family.quasi_poisson()), lambda: profile_kappa(recs)):
            with pytest.raises(NoResidualDofError):
                call()
        # the bootstrap reports every failure of its base fit as one error, with the cause behind it
        with pytest.raises(BaseFitFailedError) as got:
            bootstrap(t, b=100)
        assert type(got.value.__cause__) is NoResidualDofError
        assert fit(recs, Family.poisson()).converged

    @pytest.mark.parametrize("value", [-1, 0.5, 2**53, 2**60, float("nan"), float("inf")])
    def test_records_check_counts_as_triangles_do(self, australian, value):
        # records built by hand get the error kind and message the triangle
        # constructors give the same counts in the same cells, whatever the
        # records' order: the first bad cell in row-major order
        from nbreserve import RunOffTriangle, profile_kappa
        from nbreserve.errors import TriangleError

        I = australian.dimension
        rows = [[australian.cell(i, j) for j in range(I - i + 1)] for i in range(1, I + 1)]
        rows[0][3] = rows[3][0] = value
        with pytest.raises(TriangleError) as want:
            RunOffTriangle.from_rows(rows)
        recs = [r._replace(count=value) if (r.ay, r.dy) in ((1, 3), (4, 0)) else r for r in to_long(australian)[::-1]]
        for call in (lambda: fit(recs, Family.poisson()), lambda: profile_kappa(recs)):
            with pytest.raises(TriangleError) as got:
                call()
            assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def to_long_rows(rows):
    from nbreserve import RunOffTriangle

    return to_long(RunOffTriangle.from_rows(rows))


@st.composite
def staircase_batches(draw):
    """A staircase layout and a batch of counts on it, with zero levels.

    Each accident year is observed on a prefix of the development
    years: a square triangle, or prefixes of random lengths. Some rows
    of the batch zero a few levels, baselines included, or all but one
    accident or development year; some cells are zero at random.
    """
    from nbreserve.glm import build_design

    n_ay = draw(st.integers(1, 12))
    if draw(st.booleans()):
        n_ay = max(n_ay, 2)
        n_dy, lengths = n_ay, [n_ay - i for i in range(n_ay)]
    else:
        n_dy = draw(st.integers(1, 12))
        lengths = [n_dy] + draw(st.lists(st.integers(1, n_dy), min_size=n_ay - 1, max_size=n_ay - 1))
    ay = np.repeat(np.arange(n_ay), lengths)
    dy = np.concatenate([np.arange(n) for n in lengths])
    design = build_design(ay + 1, dy, n_ay, n_dy)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = 6
    mean = np.exp(rng.uniform(0.0, 8.0, size=(m, n_ay)))[:, ay] * rng.dirichlet(np.ones(n_dy), size=m)[:, dy]
    Y = rng.poisson(mean).astype(float)
    Y[rng.random(Y.shape) < draw(st.sampled_from([0.0, 0.1, 0.3]))] = 0.0
    for r in range(m):
        kind = rng.integers(4)
        if kind == 1:
            Y[r, (rng.random(n_ay) < 0.3)[ay] | (rng.random(n_dy) < 0.3)[dy]] = 0.0
        elif kind == 2:
            Y[r, ay != rng.integers(n_ay)] = 0.0
        elif kind == 3:
            Y[r, dy != rng.integers(n_dy)] = 0.0
    return Y, design


def kept_fit(y: np.ndarray, design, family):
    """``_irls`` on the kept levels of one row of counts: (cells, coef, mu, deviance_path, converged)."""
    from nbreserve.glm import _irls

    ay_keep, dy_keep = kept_levels(y[None], design)
    cells, kept = kept_design(design, ay_keep[0], dy_keep[0])
    coef, mu, _, path, converged, _ = _irls(y[cells], kept, family)
    return cells, coef, mu, path, converged


class TestBatchedIrls:
    """The fixed-kappa fit ``_irls`` on batches of rows, and the batched solves of the joint fit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(batch=staircase_batches(), log_kappa=st.lists(st.floats(-3.0, 9.0), min_size=6, max_size=6))
    @pytest.mark.parametrize("poisson", [True, False], ids=["poisson", "negbin"])
    def test_deviance_never_rises(self, poisson, batch, log_kappa):
        from nbreserve.glm import _DEV_SLACK

        Y, design = batch
        Y = Y[Y.sum(axis=1) > 0]  # rows that keep a level
        assume(len(Y) > 0)
        kappas = np.exp(log_kappa)
        for r, y in enumerate(Y):
            family = Family.poisson() if poisson else Family.negbin(kappas[r])
            cells, _, _, path, _ = kept_fit(y, design, family)
            slack = _DEV_SLACK * np.sum(y[cells] if poisson else y[cells] + kappas[r])
            assert np.all(np.diff(path) <= slack)

    def test_iteration_budget_fails_rows(self, australian, monkeypatch):
        from nbreserve import glm
        from nbreserve.dispersion import _prepare

        y, design = _prepare(to_long(australian))
        Y = np.random.default_rng(11).negative_binomial(3.0, 3.0 / (3.0 + y), size=(12, y.size)).astype(float)
        monkeypatch.setattr(glm, "_IRLS_MAX_ITER", 2)
        assert not any(glm._irls(row, design, Family.poisson())[4] for row in Y)

    def test_singular_system_fails_its_row_only(self):
        from nbreserve.glm import _solve_rows

        A = np.stack([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)])
        b = np.ones((3, 3))
        x = _solve_rows(A, b)
        assert np.array_equal(x[0], np.ones(3))
        assert np.isnan(x[1]).all()
        assert np.array_equal(x[2], np.full(3, 0.5))

    def test_solve_is_numpy_solve(self):
        # _solve calls the LAPACK kernel behind np.linalg.solve directly;
        # on nonsingular systems it must give the same bits
        from nbreserve.glm import _solve

        rng = np.random.default_rng(5)
        for n in (1, 5, 12, 25):
            M = rng.normal(size=(7, n, n))
            A = M @ M.transpose(0, 2, 1) + n * np.eye(n)
            B = rng.normal(size=(7, n, 2))
            assert np.array_equal(_solve(A, B), np.linalg.solve(A, B))
            assert np.array_equal(_solve(A[3], B[3]), np.linalg.solve(A[3], B[3]))


@st.composite
def newton_systems(draw):
    """A layout, a batch of counts on it with dropped levels, and the step's weights and response.

    The layout is a triangle or a rectangle, with or without holes (a
    holed layout is no staircase). Rows of the batch zero accident year
    1, development year 0, both, or random levels; the means are near
    the counts and each row has its own kappa.
    """
    from nbreserve.glm import _newton_terms

    n_ay, n_dy = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n_dy = n_ay
        cells = [(i, j) for i in range(n_ay) for j in range(n_ay - i)]
    else:
        cells = [(i, j) for i in range(n_ay) for j in range(n_dy)]
    cells = np.array(cells)
    if draw(st.booleans()):
        cells = cells[rng.random(len(cells)) > 0.2]
    ay, dy = cells[:, 0], cells[:, 1]
    design = build_design(ay + 1, dy, n_ay, n_dy)
    m = 6
    mean = np.exp(rng.uniform(0.0, 8.0, size=(m, n_ay)))[:, ay] * rng.dirichlet(np.ones(n_dy), size=m)[:, dy]
    Y = rng.poisson(mean).astype(float)
    for r in range(m):
        kind = rng.integers(5)
        if kind == 1:
            Y[r, ay == 0] = 0.0
        elif kind == 2:
            Y[r, dy == 0] = 0.0
        elif kind == 3:
            Y[r, (ay == 0) | (dy == 0)] = 0.0
        elif kind == 4:
            Y[r, (rng.random(n_ay) < 0.3)[ay] | (rng.random(n_dy) < 0.3)[dy]] = 0.0
    mask, pin = drop_pattern(Y, design)
    mu = (Y + 0.5) * np.exp(rng.normal(0.0, 0.3, size=Y.shape))
    w, z = _newton_terms(Y, mu, np.exp(rng.uniform(-3.0, 9.0, size=(m, 1))))
    return design, w * mask, z, mask, pin


def dense_step(design, w, z, pin):
    """The step of one row by the p-square normal equations, its pinned equations x = 0, and its decrement."""
    X, free = design.X, ~pin
    info = X.T @ (X * w[:, None]) * np.outer(free, free) + np.diag(pin.astype(float))
    g = X.T @ (w * z)
    delta = np.linalg.solve(info, g * free)
    return delta, g @ delta, np.linalg.cond(info[np.ix_(free, free)])


class TestTwoWayStep:
    """The joint fit's Newton step, by two-way elimination, against the dense normal equations.

    The elimination is told only each row's kept cells; the coefficients
    it holds are checked against the tests' own rule (``drop_pattern``).
    """

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(system=newton_systems())
    def test_matches_dense_normal_equations(self, system):
        from nbreserve.glm import _NormalEquations

        design, w, z, mask, pin = system
        m = len(w)
        delta, decrement = _NormalEquations(design, m, mask).solve(w, z)
        # rows that drop nothing take the same step with no mask at all
        full = np.nonzero(~pin.any(axis=1))[0]
        if full.size:
            unpinned = _NormalEquations(design, full.size).solve(w[full], z[full])
            assert np.array_equal(unpinned[0], delta[full], equal_nan=True)
            assert np.array_equal(unpinned[1], decrement[full], equal_nan=True)
        for r in range(m):
            try:
                want, want_decrement, cond = dense_step(design, w[r], z[r], pin[r])
            except np.linalg.LinAlgError:
                want, cond = None, np.inf
            if np.isnan(delta[r]).any():
                # det X^T W X = prod(A) det S: a singular S is a singular system
                assert cond > 1e6
                continue
            # pinned coefficients are held exactly
            assert np.all(delta[r, pin[r]] == 0.0)
            # both solves' rounding grows with the condition number
            if cond > 1e6:
                continue
            assert np.abs(delta[r] - want).max() <= 1e-12 * np.abs(want).max()
            assert abs(decrement[r] - want_decrement) <= 1e-12 * abs(want_decrement)

    def test_singular_schur_system_fails_its_row_only(self):
        from nbreserve.glm import _NormalEquations

        # a chain of cells: dropping development year 1 splits it in two
        design = build_design([1, 1, 2, 2], [0, 1, 1, 2], 2, 3)
        Y = np.array([[3.0, 0.0, 0.0, 5.0], [3.0, 2.0, 4.0, 5.0], [1.0, 6.0, 2.0, 2.0]])
        mask, pin = drop_pattern(Y, design)
        assert mask[0].tolist() == [True, False, False, True] and mask[1:].all()
        # weights that are powers of two keep the elimination exact, so S is exactly singular
        w = np.where(mask, 1.0, 0.0)
        z = np.array([[0.5, 0.0, 0.0, -0.25], [0.5, -0.5, 0.25, 0.125], [-1.0, 0.5, 0.5, 0.25]])
        delta, _ = _NormalEquations(design, 3, mask).solve(w, z)
        assert np.isnan(delta[0]).all()
        for r in (1, 2):
            assert np.isfinite(delta[r]).all()
            assert np.allclose(delta[r], dense_step(design, w[r], z[r], pin[r])[0], rtol=0.0, atol=1e-14)


class TestClosedFormPoisson:
    """The chain-ladder Poisson fit, the one batched Poisson fit, against ``_irls`` on each row's kept levels."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(batch=staircase_batches())
    def test_matches_irls(self, batch):
        from nbreserve.glm import _chain_ladder_batch

        Y, design = batch
        mask, pin = drop_pattern(Y, design)
        coef, mu, closed = _chain_ladder_batch(Y, design)[:3]
        assert np.all(coef[pin & closed[:, None]] == 0.0)
        # a row that keeps no level is not taken, and a row not taken gets
        # no fit at all
        assert not closed[~Y.any(axis=1)].any()
        assert np.isnan(coef[~closed]).all() and np.isnan(mu[~closed]).all()
        # the closed form solves the score equations to rounding level,
        # and a positive solution is the unique maximum
        resid = np.where(mask, Y - mu, 0.0)[closed]
        assert np.all(np.abs(resid @ design.X).max(axis=1) <= 1e-13 * Y[closed].sum(axis=1))
        for r in np.nonzero(closed)[0]:
            # the iterative fit agrees to its own precision
            cells, _, m, _, converged = kept_fit(Y[r], design, Family.poisson())
            assert converged
            assert np.all(np.abs(mu[r, cells] - m) <= 1e-8 * m.max())

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(batch=staircase_batches())
    def test_takes_the_rows_whose_maximum_exists(self, batch):
        # the Poisson maximum on the kept cells exists exactly when a
        # strictly positive table has their margins (Haberman 1974)
        from nbreserve._bootstrap import fit_kept_levels
        from nbreserve.dispersion import _nb_mle_batch
        from nbreserve.glm import _chain_ladder_batch

        Y, design = batch
        Y = Y[Y.sum(axis=1) > 0]
        closed = _chain_ladder_batch(Y, design)[2]
        exists = np.array([positive_table_exists(y, design) for y in Y], dtype=bool)
        assert closed.tolist() == exists.tolist()
        # every batched fit starts from the closed form, so none takes a row
        # that has no maximum
        mask, pin = drop_pattern(Y, design)
        # a staircase's kept cells are never fewer than the free coefficients
        assert np.all(mask.sum(axis=1) >= (~pin).sum(axis=1))
        assert not (_nb_mle_batch(Y, design, _chain_ladder_batch(Y, design))[3] & ~exists).any()
        for family in ("negbin", "poisson"):
            assert not (fit_kept_levels(Y, design, family)[0] & ~exists).any()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(batch=staircase_batches())
    def test_rows_do_not_depend_on_the_batch(self, batch):
        from nbreserve.glm import _chain_ladder_batch

        Y, design = batch
        coef, mu, ok = _chain_ladder_batch(Y, design)[:3]
        for r in range(len(Y)):
            c, m, o = _chain_ladder_batch(Y[r : r + 1], design)[:3]
            assert o[0] == ok[r]
            assert np.array_equal(c[0], coef[r], equal_nan=True) and np.array_equal(m[0], mu[r], equal_nan=True)

    @pytest.mark.parametrize("name", ["australian", "taylor"])
    def test_reserve_is_chain_ladder(self, request, name):
        from nbreserve.glm import _chain_ladder_batch, _effects_from_coef, _prepare
        from nbreserve.triangle import triangle_cells

        t = request.getfixturevalue(name)
        y, design = _prepare(to_long(t))
        coef, _, ok = _chain_ladder_batch(y[None], design)[:3]
        assert ok[0]
        _, (fut_ay, fut_dy) = triangle_cells(t.dimension)
        row, col = _effects_from_coef(coef[0], design.n_ay)
        future = np.exp(row[fut_ay] + col[fut_dy]).sum()
        assert future == pytest.approx(chain_ladder(t).total_reserve, rel=1e-12)

    def test_other_layouts_are_not_taken(self, australian):
        # records that are not a triangle's cells reach no fit: every entry
        # point names the cell missing, where the closed form would not apply
        from nbreserve import nb_mle, overdispersion_test, profile_kappa

        # leave out one inner cell: its accident year is no longer a prefix
        recs = [r for r in to_long(australian) if (r.ay, r.dy) != (1, 2)]
        calls = [lambda f=f: fit(recs, f) for f in (Family.poisson(), Family.quasi_poisson(), Family.negbin(5.0))]
        calls += [lambda: profile_kappa(recs), lambda: overdispersion_test(recs)]
        holed = build_design([r.ay for r in recs], [r.dy for r in recs])
        calls.append(lambda: nb_mle(np.array([r.count for r in recs], dtype=float), holed))
        for call in calls:
            with pytest.raises(MissingCellError, match=r"^observed cell \(1, 2\) missing from records$"):
                call()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(dimension=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    def test_kept_levels_have_positive_totals(self, dimension, seed):
        # the chain-ladder alone decides which levels a row keeps, for every
        # fit: the accident and development years with a positive total
        from nbreserve.glm import _chain_ladder_batch
        from nbreserve.triangle import triangle_cells

        rng = np.random.default_rng(seed)
        (ay, dy), _ = triangle_cells(dimension)
        design = build_design(ay + 1, dy, dimension, dimension)
        m = 8
        Y = rng.poisson(rng.uniform(0.0, 20.0, size=(m, ay.size))).astype(float)
        Y[(rng.random((m, dimension)) < 0.2)[:, ay]] = 0.0  # zeroed accident years
        Y[(rng.random((m, dimension)) < 0.2)[:, dy]] = 0.0  # zeroed development years
        Y[rng.random(m) < 0.2] = 0.0  # all-zero rows
        ay_keep, dy_keep = _chain_ladder_batch(Y, design)[3:]
        for y, a, d in zip(Y, ay_keep, dy_keep):
            assert a.tolist() == (np.bincount(ay, weights=y, minlength=dimension) > 0).tolist()
            assert d.tolist() == (np.bincount(dy, weights=y, minlength=dimension) > 0).tolist()

    def test_boundary_maximum_falls_back(self):
        # [[0, 5], [3]]: the Poisson maximum puts the first cell's mean at
        # zero although its levels have positive totals
        from nbreserve.glm import _chain_ladder_batch

        design = build_design([1, 1, 2], [0, 1, 0])
        Y = np.array([[0.0, 5.0, 3.0], [1.0, 5.0, 3.0]])
        assert _chain_ladder_batch(Y, design)[2].tolist() == [False, True]


class TestTriangleCells:
    """The one observed/future layout rule of a square triangle."""

    @pytest.mark.parametrize("I", range(1, 16))
    def test_partition_and_order(self, I):
        from nbreserve import RunOffTriangle
        from nbreserve.triangle import triangle_cells

        (obs_ay, obs_dy), (fut_ay, fut_dy) = triangle_cells(I)
        observed = list(zip(obs_ay.tolist(), obs_dy.tolist()))
        future = list(zip(fut_ay.tolist(), fut_dy.tolist()))
        assert sorted(observed + future) == [(i, j) for i in range(I) for j in range(I)]
        assert len(future) == I * (I - 1) // 2
        assert all(i + j >= I for i, j in future)
        assert future == sorted(future)  # row-major
        assert observed == [(i, j) for i in range(I) for j in range(I - i)]
        if I >= 2:
            t = RunOffTriangle.from_rows([[1] * (I - i) for i in range(I)])
            assert observed == [(r.ay - 1, r.dy) for r in to_long(t)]

    def test_study_counts_match_prepare(self):
        # a study triangle's counts and design, which the study fits without
        # _prepare's checks, are the ones _prepare hands to fit
        from nbreserve import simulation
        from nbreserve.glm import _counts_and_design, _prepare

        t, _ = simulation.generate(simulation.default_config(), 4)
        y, design = _counts_and_design(to_long(t))
        y_ref, design_ref = _prepare(to_long(t))
        assert np.array_equal(y, y_ref)
        assert np.array_equal(design.X, design_ref.X)
        assert np.array_equal(design.ay_idx, design_ref.ay_idx)
        assert np.array_equal(design.dy_idx, design_ref.dy_idx)
