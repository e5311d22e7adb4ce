import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from nbreserve import Family, chain_ladder, fit, nb_loglik, pearson_dispersion, poisson_loglik, to_long, to_simplex
from nbreserve.glm import ConditioningWarning, build_design, score
from nbreserve.errors import RankDeficientError, SeparationError
from conftest import drop_pattern, random_triangle


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
        # a fully zero accident year drives its effect to -inf
        recs = to_long_rows([[5, 3, 2], [0, 0], [4]])
        with pytest.raises(SeparationError):
            fit(recs, Family.poisson())

    def test_missing_level(self, australian):
        recs = [r for r in to_long(australian) if r.ay != 3]
        with pytest.raises(RankDeficientError):
            fit(recs, Family.poisson())

    def test_too_few_observations(self):
        # two records cannot support intercept plus one ay and one dy effect
        from nbreserve import CellRecord

        recs = [CellRecord(1, 0, 5), CellRecord(2, 1, 4)]
        with pytest.raises(RankDeficientError):
            fit(recs, Family.poisson())

    @pytest.mark.parametrize("value", [-1, 0.5, 2**53, 2**60, float("nan"), float("inf")])
    def test_records_check_counts_as_triangles_do(self, australian, value):
        # records built by hand get the error kind and message the triangle
        # constructors give the same count in the same cell
        from nbreserve import RunOffTriangle, profile_kappa
        from nbreserve.errors import TriangleError

        I = australian.dimension
        rows = [[australian.cell(i, j) for j in range(I - i + 1)] for i in range(1, I + 1)]
        rows[0][3] = value
        with pytest.raises(TriangleError) as want:
            RunOffTriangle.from_rows(rows)
        recs = [r._replace(count=value) if (r.ay, r.dy) == (1, 3) else r for r in to_long(australian)]
        for call in (lambda: fit(recs, Family.poisson()), lambda: profile_kappa(recs)):
            with pytest.raises(TriangleError) as got:
                call()
            assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n_ay=st.integers(1, 6),
    n_dy=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    absent=st.sampled_from([0.0, 0.2, 0.5]),
    zero=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_level_check_follows_kept_levels(n_ay, n_dy, seed, absent, zero):
    # fit's check of single records names the error kind and level that
    # the batches' rule (_kept_levels) gives: a level with no cell is
    # rank deficient, one whose counts are all zero separated, accident
    # years first
    from nbreserve.glm import _check_levels, _kept_levels

    rng = np.random.default_rng(seed)
    ay, dy = (a.ravel() for a in np.indices((n_ay, n_dy)))
    keep = rng.random(ay.size) >= absent
    keep[-1] = True  # the largest years have a cell, so the design has n_ay x n_dy levels
    ay, dy = ay[keep], dy[keep]
    y = rng.poisson(5.0, size=ay.size).astype(float)
    y[(rng.random(n_ay) < zero)[ay] | (rng.random(n_dy) < zero)[dy]] = 0.0
    design = build_design(ay + 1, dy)
    levels = _kept_levels(np.vstack((np.ones_like(y), y)), design)
    want = None
    for name, (present, kept) in zip(("accident year", "development year"), levels):
        if want is None and not present.all():
            want = RankDeficientError, f"{name} level {int(np.argmin(present))} "
        if want is None and not kept.all():
            want = SeparationError, f"{name} level {int(np.argmin(kept))} "
    if want is None:
        _check_levels(y, design)
    else:
        with pytest.raises(want[0]) as got:
            _check_levels(y, design)
        assert type(got.value) is want[0] and str(got.value).startswith(want[1])


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
    from nbreserve.glm import _irls, _kept_design, _kept_levels

    ay_keep, dy_keep = _kept_levels(y[None], design)
    cells, kept = _kept_design(design, ay_keep[0], dy_keep[0])
    coef, mu, _, path, converged, _ = _irls(y[cells], kept, family)
    return cells, coef, mu, path, converged


def positive_table_exists(y: np.ndarray, design) -> bool:
    """Whether a strictly positive table on the kept cells of ``y`` has its margins.

    Maximises t, at most 1, subject to T >= t over tables T with the
    kept levels' totals. The margins' constraints are those of a
    bipartite graph, so the optimum is a ratio of integers whose
    denominator is at most the n kept cells: a positive one is at least
    1 / n.
    """
    from scipy.optimize import linprog

    from nbreserve.glm import _kept_design, _kept_levels

    ay_keep, dy_keep = _kept_levels(y[None], design)
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
        # leave out one inner cell: no row is the closed form's
        keep = np.arange(design.n) != 2
        holed = build_design(design.ay_idx[keep] + 1, design.dy_idx[keep])
        monkeypatch.setattr(glm, "_IRLS_MAX_ITER", 2)
        assert not any(glm._irls(row, design, Family.poisson())[4] for row in Y)
        assert not glm._poisson_batch(Y[:, keep], holed)[2].any()

    def test_singular_system_fails_its_row_only(self):
        from nbreserve.glm import _solve_rows

        A = np.stack([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)])
        b = np.ones((3, 3))
        x = _solve_rows(A, b)
        assert np.array_equal(x[0], np.ones(3))
        assert np.isnan(x[1]).all()
        assert np.array_equal(x[2], np.full(3, 0.5))


class TestClosedFormPoisson:
    """The chain-ladder Poisson fit against ``_irls`` on each row's kept levels."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(batch=staircase_batches())
    def test_matches_irls(self, batch):
        from nbreserve.glm import _chain_ladder_batch, _poisson_batch

        Y, design = batch
        mask, pin = drop_pattern(Y, design)
        closed_coef, closed_mu, closed = _chain_ladder_batch(Y, design)
        coef, mu, ok = _poisson_batch(Y, design)
        # the batched fit takes the closed form where it applies
        assert np.array_equal(coef[closed], closed_coef[closed]) and np.array_equal(mu[closed], closed_mu[closed])
        assert np.all(coef[pin & ok[:, None]] == 0.0)
        # the closed form solves the score equations to rounding level,
        # and a positive solution is the unique maximum
        resid = np.where(mask, Y - mu, 0.0)[closed]
        assert np.all(np.abs(resid @ design.X).max(axis=1) <= 1e-13 * Y[closed].sum(axis=1))
        for r, y in enumerate(Y):
            if not y.any():
                assert not ok[r]
                continue
            cells, c, m, _, converged = kept_fit(y, design, Family.poisson())
            if closed[r]:
                # the iterative fit agrees to its own precision
                assert converged
                assert np.all(np.abs(mu[r, cells] - m) <= 1e-8 * m.max())
            else:
                # rows the closed form does not take get exactly the IRLS fit
                assert ok[r] == converged
                assert np.array_equal(coef[r, ~pin[r]], c, equal_nan=True)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(batch=staircase_batches())
    def test_takes_the_rows_whose_maximum_exists(self, batch):
        # the Poisson maximum on the kept cells exists exactly when a
        # strictly positive table has their margins (Haberman 1974)
        from nbreserve.glm import _chain_ladder_batch

        Y, design = batch
        Y = Y[Y.sum(axis=1) > 0]
        closed = _chain_ladder_batch(Y, design)[2]
        assert closed.tolist() == [positive_table_exists(y, design) for y in Y]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(batch=staircase_batches())
    def test_rows_do_not_depend_on_the_batch(self, batch):
        from nbreserve.glm import _chain_ladder_batch

        Y, design = batch
        coef, mu, ok = _chain_ladder_batch(Y, design)
        for r in range(len(Y)):
            c, m, o = _chain_ladder_batch(Y[r : r + 1], design)
            assert o[0] == ok[r]
            assert np.array_equal(c[0], coef[r], equal_nan=True) and np.array_equal(m[0], mu[r], equal_nan=True)

    @pytest.mark.parametrize("name", ["australian", "taylor"])
    def test_reserve_is_chain_ladder(self, request, name):
        from nbreserve.glm import _chain_ladder_batch, _effects_from_coef, _prepare
        from nbreserve.triangle import triangle_cells

        t = request.getfixturevalue(name)
        y, design = _prepare(to_long(t))
        coef, _, ok = _chain_ladder_batch(y[None], design)
        assert ok[0]
        _, (fut_ay, fut_dy) = triangle_cells(t.dimension)
        row, col = _effects_from_coef(coef[0], design.n_ay)
        future = np.exp(row[fut_ay] + col[fut_dy]).sum()
        assert future == pytest.approx(chain_ladder(t).total_reserve, rel=1e-12)

    def test_other_layouts_fall_back(self, australian):
        from nbreserve.glm import _chain_ladder_batch, _irls, _poisson_batch, _prepare

        y, design = _prepare(to_long(australian))
        # leave out one inner cell: its accident year is no longer a prefix
        keep = np.arange(design.n) != 2
        holed = build_design(design.ay_idx[keep] + 1, design.dy_idx[keep])
        Y = np.vstack([y[keep], y[keep][::-1]])
        assert not _chain_ladder_batch(Y, holed)[2].any()
        coef, mu, ok = _poisson_batch(Y, holed)
        for r, row in enumerate(Y):
            c, m, _, _, converged, _ = _irls(row, holed, Family.poisson())
            assert ok[r] == converged
            assert np.array_equal(coef[r], c) and np.array_equal(mu[r], m)

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
