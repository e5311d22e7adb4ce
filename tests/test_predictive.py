import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from nbreserve import (
    Family,
    RunOffTriangle,
    bootstrap,
    chain_ladder,
    fit,
    nb_mle,
    plugin_predict,
    profile_kappa,
    sample_nb,
    summarize,
    to_long,
)
from nbreserve import dispersion, glm
from nbreserve.errors import ExcessiveFailuresError, TooFewDrawsError
from nbreserve.glm import _counts_and_design, _data_key, _prepare
from nbreserve.predictive import ay_summary, draws_csv, summary_json
from nbreserve._rng import substream
from conftest import block_counts, drop_pattern, kept_design, kept_levels, positive_table_exists, refit


def _study_spec(s, b, family="quasipoisson"):
    """Engine spec of the simulation study's odp (or poisson) method on study triangle ``s``."""
    import nbreserve._bootstrap as bt
    from nbreserve import simulation

    config = simulation.default_config()
    t, _ = simulation.generate(config, s)
    y, design = _counts_and_design(to_long(t))
    mu, phi = simulation._method_base("quasipoisson", y, design)
    return bt.EngineSpec(
        seed=config.seed, prefix=(1, s, 1), b=b, design=design, mu_obs=mu,
        family=family, param=phi if family == "quasipoisson" else None, correct=False,
    )


def _refit_batch(y_star, spec):
    """The engine's batched refit of ``y_star`` for ``spec``, with the spec's bias correction."""
    import nbreserve._bootstrap as bt
    from nbreserve.dispersion import bias_correct

    ok, row_eff, col_eff, disp = bt._refit_batch(y_star, spec.design, spec.family)
    if spec.correct:
        disp[ok] = bias_correct(disp[ok], spec.design.n, spec.design.p)
    return ok, row_eff, col_eff, disp


@st.composite
def sampler_args(draw):
    """(mu, kappa, size) for sample_nb: scalar or array mu and kappa, size None or a tuple."""
    mu_shape = draw(st.sampled_from([(), (3,), (2, 3)]))
    kappa_shape = draw(st.sampled_from([(), (3,), (1, 3)]))
    shape = np.broadcast_shapes(mu_shape, kappa_shape)
    size = draw(st.sampled_from([None, shape, (4,) + shape]))

    def values(shape, lo, hi):
        x = np.array(draw(st.lists(st.floats(lo, hi), min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))))
        return float(x[0]) if shape == () else x.reshape(shape)

    return values(mu_shape, 0.0, 1e6), values(kappa_shape, 1e-2, 1e7), size


class TestSampler:
    def test_moments(self):
        rng = substream(0, 1)
        mu, kappa, n = 20.0, 5.0, 200_000
        x = sample_nb(mu, kappa, rng, size=n)
        assert x.mean() == pytest.approx(mu, rel=0.01)
        assert x.var(ddof=1) == pytest.approx(mu + mu * mu / kappa, rel=0.03)

    def test_poisson_at_cap(self):
        # at or above the dispersion cap the sampler degenerates to Poisson
        rng = substream(0, 2)
        x = sample_nb(30.0, 1e8, rng, size=200_000)
        assert x.var(ddof=1) == pytest.approx(30.0, rel=0.02)
        rng = substream(0, 3)
        y = sample_nb(30.0, np.inf, rng, size=10_000)
        assert y.var(ddof=1) == pytest.approx(30.0, rel=0.1)

    def test_vector_mu(self):
        rng = substream(0, 4)
        mu = np.array([5.0, 50.0, 500.0])
        x = sample_nb(mu, 10.0, rng, size=(50_000, 3))
        assert x.mean(axis=0) == pytest.approx(mu, rel=0.05)

    def test_vector_kappa(self):
        rng = substream(0, 5)
        mu = np.full(3, 40.0)
        kappa = np.array([2.0, 10.0, 1e8])
        x = sample_nb(mu, kappa, rng, size=(200_000, 3))
        expect = mu + mu * mu / np.array([2.0, 10.0, np.inf])
        assert x.var(axis=0, ddof=1) == pytest.approx(expect, rel=0.05)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(args=sampler_args(), seed=st.integers(0, 2**32 - 1))
    def test_stream_contract(self, args, seed):
        # the same variates, bit for bit, as the textbook gamma then Poisson draw
        mu, kappa, size = args
        mu_a = np.asarray(mu, dtype=float)
        ref = substream(seed, 0)
        want = ref.poisson(ref.gamma(kappa, mu_a / kappa, size))
        got = sample_nb(mu, kappa, substream(seed, 0), size=size)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "kappa", [1e9, np.full(2, 1e9), np.full(2, np.inf), np.array([1e8, np.inf])],
        ids=["scalar", "array", "array-inf", "array-mixed"],
    )
    def test_arrays_at_the_cap_are_poisson(self, kappa):
        # README's dispersion cap: any kappa >= 1e8, infinity included, is
        # exactly Poisson, so an array of them draws what the scalar draws
        got = sample_nb(np.array([3.0, 5.0]), kappa, substream(0, 1))
        assert got.tolist() == [3, 4]
        assert np.array_equal(got, substream(0, 1).poisson([3.0, 5.0]))

    def test_cells_at_the_cap_draw_no_gamma(self):
        # the other cells draw the gamma-Poisson mixture, in stream order
        mu, kappa, below = np.array([3.0, 5.0, 7.0]), np.array([2.0, np.inf, 4.0]), [0, 2]
        ref = substream(0, 1)
        lam = mu.copy()
        lam[below] = ref.gamma(kappa[below], mu[below] / kappa[below])
        assert np.array_equal(sample_nb(mu, kappa, substream(0, 1)), ref.poisson(lam))

    @pytest.mark.parametrize("kappa", [[2.0, np.nan], [2.0, 0.0], [-1.0, 1e9]], ids=["nan", "zero", "negative"])
    def test_array_kappa_must_be_positive(self, kappa):
        with pytest.raises(ValueError):
            sample_nb(np.ones(2), np.array(kappa), substream(0, 8))

    @pytest.mark.parametrize("kappa", [2.0, np.full(3, 2.0)], ids=["scalar", "array"])
    def test_size_must_fit_mu(self, kappa):
        # one draw is not silently broadcast over three means
        with pytest.raises(ValueError):
            sample_nb(np.ones(3), kappa, substream(0, 8), size=(1,))

    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    def test_engine_draws_check_kappa(self, kappa):
        # the engine draws through draw_counts, which must not return zeros
        from nbreserve._bootstrap import draw_counts

        with pytest.raises(ValueError):
            draw_counts("negbin", kappa, np.ones(3), substream(0, 8))

    def test_nonnegative_integers(self):
        rng = substream(0, 6)
        x = sample_nb(3.0, 1.5, rng, size=10_000)
        assert np.issubdtype(x.dtype, np.integer)
        assert x.min() >= 0

    def test_matches_closed_form_pmf(self):
        # mixture draw frequencies against the analytic pmf
        rng = substream(0, 7)
        mu, kappa, n = 8.0, 3.0, 100_000
        x = sample_nb(mu, kappa, rng, size=n)
        hi = int(x.max())
        obs = np.bincount(x, minlength=hi + 1).astype(float)
        pmf = stats.nbinom.pmf(np.arange(hi + 1), kappa, kappa / (kappa + mu))
        keep = pmf * n >= 5
        chi2 = np.sum((obs[keep] - n * pmf[keep]) ** 2 / (n * pmf[keep]))
        dof = keep.sum() - 1
        assert stats.chi2.sf(chi2, dof) > 0.01


class TestBlockLaw:
    """A block's draws have the law of one replicate's draws from its own substream.

    The engine draws a block of 100 replicates' cells with one
    ``draw_counts`` call per block, at a scalar parameter (observed cells)
    or a column of them (future cells, one refitted kappa or phi per row).
    For each law, 2000 such rows are compared with 2000 rows drawn one
    replicate per substream, cell by cell, with a two-sample
    Kolmogorov-Smirnov test on 24 cells whose means span 0.3 to 3e4. The
    cells' p-values are combined by Fisher's method, and the law is
    rejected below 0.001: a size of at most 0.1% per law and 0.4% over the
    four, less since the test is conservative on counts. The streams are
    fixed, so the outcome is too.
    """

    MU = np.geomspace(0.3, 3e4, 24)
    N = 2000

    @classmethod
    def _blocks(cls, tag, param, column):
        import nbreserve._bootstrap as bt

        out = []
        for block in range(cls.N // 100):
            p = np.full((100, 1), param) if column else param
            out.append(bt.draw_counts(tag, p, np.broadcast_to(cls.MU, (100, cls.MU.size)), substream(12, 0, block)))
        return np.concatenate(out)

    @classmethod
    def _combined_p(cls, got, want):
        p = [stats.ks_2samp(got[:, j], want[:, j]).pvalue for j in range(cls.MU.size)]
        return stats.combine_pvalues(p, method="fisher").pvalue

    @pytest.mark.parametrize(
        "tag, param, off",
        [("negbin", 2.57, 3.2), ("negbin", 50.0, 25.0), ("poisson", None, None), ("quasipoisson", 3.0, 3.75)],
        ids=["nb-2.57", "nb-50", "poisson", "odp"],
    )
    def test_block_draws_have_the_replicate_law(self, tag, param, off):
        import nbreserve._bootstrap as bt

        want = np.array([bt.draw_counts(tag, param, self.MU, substream(11, 1, r)) for r in range(self.N)])
        got = self._blocks(tag, param, column=False)
        assert self._combined_p(got, want) > 1e-3
        if param is not None:
            # a column of one value draws the same bits as the scalar
            assert np.array_equal(self._blocks(tag, param, column=True), got)
            # and the test sees a law whose kappa or phi is off
            assert self._combined_p(self._blocks(tag, off, column=False), want) < 1e-6


class TestPlugin:
    def test_future_cells(self, australian):
        model = fit(to_long(australian), Family.negbin(4.8))
        cells = plugin_predict(model, 4.8)
        I = model.n_ay
        assert len(cells) == I * (I - 1) // 2
        assert all(c.ay + c.dy > I for c in cells)
        for c in cells:
            assert c.mean == pytest.approx(model.mu_at(c.ay, c.dy), rel=1e-12)
            assert c.variance == pytest.approx(c.mean + c.mean**2 / 4.8, rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan])
    def test_bad_kappa(self, australian, kappa):
        model = fit(to_long(australian), Family.negbin(4.8))
        with pytest.raises(ValueError, match="kappa must be positive"):
            plugin_predict(model, kappa)

    def test_poisson_variance_at_cap(self, australian):
        model = fit(to_long(australian), Family.poisson())
        cells = plugin_predict(model, 1e8)
        for c in cells:
            assert c.variance == pytest.approx(c.mean, rel=1e-12)

    @pytest.mark.parametrize("kappa", [4.8, 1e8, np.inf])
    @pytest.mark.parametrize("size", [None, 7])
    def test_sample_is_sample_nb(self, australian, kappa, size):
        # a cell's draws are, bit for bit, sample_nb's from the same stream
        model = fit(to_long(australian), Family.negbin(4.8))
        for k, c in enumerate(plugin_predict(model, kappa)):
            got = c.sample(substream(3, k), size=size)
            assert np.array_equal(got, sample_nb(c.mean, kappa, substream(3, k), size=size))


@pytest.fixture(scope="module")
def dist(australian):
    return bootstrap(australian, b=500, seed=0)


class TestBootstrap:
    def test_effective_draws(self, dist):
        assert dist.b_requested == 500
        assert dist.b_effective == 500
        assert dist.refit_failures == 0
        assert dist.draws_total.shape == (500,)

    def test_first_draws_frozen(self, dist):
        assert dist.draws_total[:6].tolist() == [3619, 6088, 4093, 4314, 4950, 6998]

    def test_first_draws_frozen_taylor_ashe(self, taylor):
        d = bootstrap(taylor, b=150, seed=3)
        assert d.draws_total[:6].tolist() == [14458356, 18837105, 18945081, 18830238, 22561843, 16621889]

    @pytest.mark.parametrize(
        "family, first",
        [
            ("poisson", [2831, 2831, 2992, 2852, 2871, 2900]),
            ("quasipoisson", [2885, 3491, 2698, 3250, 3628, 2304]),
        ],
    )
    def test_first_draws_frozen_study_families(self, family, first):
        import nbreserve._bootstrap as bt

        totals, _, failures = bt.run(_study_spec(4, 120, family))
        assert failures == 0
        assert totals[:6].tolist() == first

    def test_draws_are_counts(self, dist):
        assert np.issubdtype(dist.draws_total.dtype, np.integer)
        assert dist.draws_total.min() >= 0

    def test_point_is_chain_ladder(self, dist, australian):
        cl = chain_ladder(australian)
        assert dist.point_total == pytest.approx(cl.total_reserve, rel=1e-12)
        assert dist.point_by_ay == pytest.approx(cl.reserves, rel=1e-12)

    def test_ay_totals_reconcile(self, dist):
        # per accident year draws add up to the total draw, replicate by replicate
        assert sorted(dist.draws_by_ay) == [2, 3, 4, 5, 6, 7]
        stacked = sum(dist.draws_by_ay.values())
        assert np.array_equal(stacked, dist.draws_total)

    def test_kappa_correction_applied(self, dist):
        assert dist.corrected
        assert dist.kappa_used == dist.kappa_adj < dist.kappa_mle
        assert dist.kappa_mle == pytest.approx(4.79998, abs=1e-4)
        assert dist.kappa_adj == pytest.approx(2.57142, abs=1e-4)

    def test_no_correct_uses_mle(self, australian):
        d = bootstrap(australian, b=120, seed=0, correct=False)
        assert not d.corrected
        assert d.kappa_used == d.kappa_mle
        assert d.kappa_adj < d.kappa_mle

    def test_seed_determinism(self, dist, australian):
        again = bootstrap(australian, b=500, seed=0)
        assert np.array_equal(again.draws_total, dist.draws_total)
        other = bootstrap(australian, b=500, seed=1)
        assert not np.array_equal(other.draws_total, dist.draws_total)

    def test_worker_count_invariance(self, dist, australian):
        for workers in (2, 3):
            d = bootstrap(australian, b=500, seed=0, workers=workers)
            assert np.array_equal(d.draws_total, dist.draws_total)
            for ay in d.draws_by_ay:
                assert np.array_equal(d.draws_by_ay[ay], dist.draws_by_ay[ay])

    def test_excessive_failures_guard(self, australian, monkeypatch):
        import nbreserve._bootstrap as bt

        def all_fail(y_star, design, family):
            m = len(y_star)
            n_ay, n_dy = design.n_ay, design.n_dy
            return np.zeros(m, dtype=bool), np.zeros((m, n_ay)), np.zeros((m, n_dy)), np.zeros(m)

        monkeypatch.setattr(bt, "_refit_batch", all_fail)
        with pytest.raises(ExcessiveFailuresError):
            bootstrap(australian, b=120, seed=0)

    def test_worker_count_invariance_taylor_ashe(self, taylor):
        # million-scale means turn any batch-composition dependence of the
        # refit arithmetic into different integer draws; B=450 is five
        # blocks, so a pool of two splits them
        one = bootstrap(taylor, b=450, seed=3)
        for workers in (2, 3):
            d = bootstrap(taylor, b=450, seed=3, workers=workers)
            assert np.array_equal(d.draws_total, one.draws_total)
            for ay in d.draws_by_ay:
                assert np.array_equal(d.draws_by_ay[ay], one.draws_by_ay[ay])


class TestBaseFitReuse:
    """The base fit is the remembered joint fit: however warm the memo, the same distribution bit for bit."""

    @staticmethod
    def _assert_same(a, b, case):
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, dict):
                assert list(x) == list(y)
                x, y = list(x.values()), list(y.values())
            assert np.array_equal(x, y) and np.asarray(x).dtype == np.asarray(y).dtype, (case, field.name)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name, other", [("australian", "taylor"), ("taylor", "australian")])
    def test_warm_calls_give_the_cold_distribution(self, name, other, workers, request, monkeypatch):
        t = request.getfixturevalue(name)

        def run():
            return bootstrap(t, b=100, seed=5, workers=workers)

        monkeypatch.setattr(glm, "_last_joint_fit", ((), None))
        cold = run()
        warm = {"after a bootstrap": run()}
        monkeypatch.setattr(glm, "_last_joint_fit", ((), None))
        profile_kappa(to_long(t))
        warm["after profile_kappa"] = run()
        profile_kappa(to_long(request.getfixturevalue(other)))
        warm["with another triangle remembered"] = run()
        for case, d in warm.items():
            self._assert_same(cold, d, case)

    def test_warm_call_runs_no_base_fit(self, australian, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return fit_at_estimate(*args)

        fit_at_estimate = dispersion._fit_at_estimate
        monkeypatch.setattr(dispersion, "_fit_at_estimate", counted)
        monkeypatch.setattr(glm, "_last_joint_fit", ((), None))
        bootstrap(australian, b=100, seed=0)
        assert len(calls) == 1
        bootstrap(australian, b=100, seed=1)
        assert len(calls) == 1
        # the profile fits; the bootstrap after it reads that fit
        monkeypatch.setattr(glm, "_last_joint_fit", ((), None))
        profile_kappa(to_long(australian))
        bootstrap(australian, b=100, seed=0, correct=False)
        assert len(calls) == 2

    def test_leaves_its_record_in_the_memo(self, australian, taylor, monkeypatch):
        monkeypatch.setattr(glm, "_last_joint_fit", ((), None))
        profile_kappa(to_long(taylor))
        d = bootstrap(australian, b=100, seed=0)
        y, design = _prepare(to_long(australian))
        key, joint = glm._last_joint_fit
        assert key == _data_key(y, design)
        _, mu, kappa, at_boundary = nb_mle(y, design)
        assert joint.kappa == kappa == d.kappa_mle and not at_boundary
        assert np.array_equal(joint.mu, mu)

    def test_separated_base_fit_leaves_the_memo(self, australian, monkeypatch):
        from nbreserve.errors import BaseFitFailedError, SeparationError

        monkeypatch.setattr(glm, "_last_joint_fit", ((), None))
        profile_kappa(to_long(australian))
        before = glm._last_joint_fit
        with pytest.raises(BaseFitFailedError) as info:
            bootstrap(RunOffTriangle.from_rows(TestUnboundedRefit.QUASI_SEPARATED), b=100, seed=0)
        assert isinstance(info.value.__cause__, SeparationError)
        assert glm._last_joint_fit is before


class TestBatchedRefit:
    """The engine's batched refit against the one-replicate scalar refit."""

    @staticmethod
    def _spec(t, b, family="negbin"):
        import nbreserve._bootstrap as bt
        from nbreserve.dispersion import _prepare, bias_correct, nb_mle

        y, design = _prepare(to_long(t))
        _, mu, kappa, _ = nb_mle(y, design)
        param = bias_correct(kappa, design.n, design.p)
        return bt.EngineSpec(
            seed=0, prefix=(), b=b, design=design, mu_obs=mu,
            family=family, param=param, correct=family == "negbin",
        )

    @pytest.mark.parametrize(
        "name, b, family",
        [
            ("australian", 400, "negbin"), ("taylor", 200, "negbin"),
            ("australian", 200, "quasipoisson"), ("australian", 200, "poisson"),
        ],
        ids=["australian-400-nb", "taylor-200-nb", "australian-200-odp", "australian-200-poisson"],
    )
    def test_matches_scalar_refit(self, request, name, b, family):
        import nbreserve._bootstrap as bt

        t = request.getfixturevalue(name)
        spec = self._spec(t, b, family)
        y_star = np.array(
            [bt.draw_counts("negbin", spec.param, spec.mu_obs, bt.substream(0, r)) for r in range(b)]
        )
        ok, row_eff, col_eff, disp = _refit_batch(y_star, spec)
        ref = [refit(y, spec) for y in y_star]
        assert ok.tolist() == [r is not None for r in ref]
        dropped = 0
        for i in np.nonzero(ok)[0]:
            row_ref, col_ref, disp_ref = ref[i]
            assert np.array_equal(np.isinf(row_eff[i]), np.isinf(row_ref))
            assert np.array_equal(np.isinf(col_eff[i]), np.isinf(col_ref))
            dropped += bool(np.isinf(row_ref).any() or np.isinf(col_ref).any())
            fin = np.isfinite(row_ref)
            assert row_eff[i][fin] == pytest.approx(row_ref[fin], rel=1e-6, abs=1e-6)
            fin = np.isfinite(col_ref)
            assert col_eff[i][fin] == pytest.approx(col_ref[fin], rel=1e-6, abs=1e-6)
            if disp_ref is None:
                assert np.isnan(disp[i])
            else:
                assert disp[i] == pytest.approx(disp_ref, rel=1e-8)
        if name == "australian":
            # the single-cell newest accident year draws zero in about a fifth of replicates
            assert dropped > b // 10

    @pytest.mark.parametrize("name", ["australian", "taylor"])
    def test_joint_iterations(self, request, name):
        # the engine's replicates of a B=200 bootstrap at seed 0; the
        # counts are deterministic, so this guards the kernel's speed
        import nbreserve._bootstrap as bt
        from nbreserve.dispersion import _nb_mle_batch

        spec = self._spec(request.getfixturevalue(name), 200)
        y_star = np.array(
            [bt.draw_counts("negbin", spec.param, spec.mu_obs, bt.substream(0, r)) for r in range(200)]
        ).astype(float)
        poisson = glm._chain_ladder_batch(y_star, spec.design)
        _, _, _, ok, n_iter = _nb_mle_batch(y_star, spec.design, poisson)
        assert ok.all()
        assert n_iter.mean() <= 8 and n_iter.max() <= 12

    @staticmethod
    def _patterns(spec, base):
        """``base`` rows with constructed levels zeroed, one pattern per row."""
        a, d, last = spec.design.ay_idx, spec.design.dy_idx, spec.design.n_ay - 1
        zeroed = [
            a == 0,  # accident year 1, a baseline
            d == 0,  # development year 0, the other baseline
            (a == 0) | (d == 0),  # both baselines
            (a == last) | (d == last),  # the newest year and the last development year
            a > 0,  # a single accident year left
            d > 0,  # a single development year left
            (a == 2) | (d == 3),
            np.zeros_like(a, dtype=bool),  # nothing dropped
        ]
        y_star = base[: len(zeroed)].copy()
        for row, cells in zip(y_star, zeroed):
            row[cells] = 0
        return y_star

    @pytest.mark.parametrize("name", ["australian", "taylor"])
    @pytest.mark.parametrize("family", ["negbin", "quasipoisson", "poisson"], ids=["nb", "odp", "poisson"])
    def test_masked_patterns_match_scalar_refit(self, request, name, family):
        import nbreserve._bootstrap as bt

        t = request.getfixturevalue(name)
        spec = self._spec(t, 8, family)
        base = np.array(
            [bt.draw_counts("negbin", spec.param, spec.mu_obs, bt.substream(5, r)) for r in range(8)]
        )
        y_star = self._patterns(spec, base)
        ok, row_eff, col_eff, disp = _refit_batch(y_star, spec)
        ref = [refit(y, spec) for y in y_star]
        assert ok.tolist() == [r is not None for r in ref]
        # one accident or development year left: saturated, so no ODP dispersion
        assert ok.sum() == (6 if family == "quasipoisson" else 8)
        a, d = spec.design.ay_idx, spec.design.dy_idx
        for i in np.nonzero(ok)[0]:
            row_ref, col_ref, disp_ref = ref[i]
            log_mu = row_eff[i][a] + col_eff[i][d]
            log_mu_ref = row_ref[a] + col_ref[d]
            assert np.array_equal(np.isinf(row_eff[i]), np.isinf(row_ref))
            assert np.array_equal(np.isinf(col_eff[i]), np.isinf(col_ref))
            kept = np.isfinite(log_mu_ref)
            assert np.abs(log_mu[kept] - log_mu_ref[kept]).max() < 2e-6
            if disp_ref is None:
                assert np.isnan(disp[i])
            else:
                assert disp[i] == pytest.approx(disp_ref, rel=1e-10)

    @pytest.mark.parametrize("family", ["negbin", "quasipoisson", "poisson"], ids=["nb", "odp", "poisson"])
    def test_full_rows_ignore_masked_neighbours(self, taylor, family):
        import nbreserve._bootstrap as bt

        spec = self._spec(taylor, 30, family)
        y_star = np.array(
            [bt.draw_counts("negbin", spec.param, spec.mu_obs, bt.substream(9, r)) for r in range(30)]
        )
        y_star[::3, spec.design.ay_idx == 9] = 0
        y_star[1::6, spec.design.dy_idx == 0] = 0
        full = np.arange(30) % 3 != 0
        full[1::6] = False
        mixed = _refit_batch(y_star, spec)
        alone = _refit_batch(y_star[full], spec)
        for got, want in zip(mixed, alone):
            assert np.array_equal(got[full], want, equal_nan=True)
        # and each equals the scalar refit bit for bit
        for i, y in enumerate(y_star[full]):
            row_ref, col_ref, disp_ref = refit(y, spec)
            assert np.array_equal(alone[1][i], row_ref)
            assert np.array_equal(alone[2][i], col_ref)
            assert np.isnan(alone[3][i]) if disp_ref is None else alone[3][i] == disp_ref

    def test_study_odp_drop_patterns(self):
        import nbreserve._bootstrap as bt

        spec = _study_spec(4, 120)
        y_star = np.array(
            [bt.draw_counts(spec.family, spec.param, spec.mu_obs, bt.substream(0, r)) for r in range(60)]
        )
        ay_keep, dy_keep = kept_levels(y_star, spec.design)
        assert len(np.unique(np.hstack((ay_keep, dy_keep)), axis=0)) >= 5
        ok, row_eff, col_eff, disp = _refit_batch(y_star, spec)
        ref = [refit(y, spec) for y in y_star]
        assert ok.tolist() == [r is not None for r in ref]
        for i in np.nonzero(ok)[0]:
            row_ref, col_ref, disp_ref = ref[i]
            assert np.array_equal(np.isinf(row_eff[i]), np.isinf(row_ref))
            fin = np.isfinite(row_ref)
            assert row_eff[i][fin] == pytest.approx(row_ref[fin], abs=2e-6)
            fin = np.isfinite(col_ref)
            assert col_eff[i][fin] == pytest.approx(col_ref[fin], abs=2e-6)
            assert disp[i] == pytest.approx(disp_ref, rel=1e-10)

        # one batch per chunk, so the draws must not depend on the chunking
        one = bt.run(spec, workers=1)
        for workers in (2, 3):
            other = bt.run(spec, workers=workers)
            assert np.array_equal(other[0], one[0])
            assert np.array_equal(other[1], one[1])
            assert other[2] == one[2]

    def test_failed_rows_stay_failed(self, australian):
        import nbreserve._bootstrap as bt

        spec = self._spec(australian, 4)
        y_star = np.array(
            [bt.draw_counts("negbin", spec.param, spec.mu_obs, bt.substream(0, r)) for r in range(4)]
        )
        y_star[1] = 0  # nothing left to fit
        y_star[2, spec.design.ay_idx > 0] = 0  # only the first accident year has counts
        ok, _, _, _ = _refit_batch(y_star, spec)
        assert ok.tolist() == [refit(y, spec) is not None for y in y_star]
        assert not ok[1]


class TestChunking:
    """Draws are identical for any split of the replicates into chunks, and a refit for any split of its batch."""

    @staticmethod
    def _spec(case, australian, b):
        if case == "study-odp":
            return _study_spec(4, b)
        return TestBatchedRefit._spec(australian, b, case)

    @pytest.mark.parametrize("case", ["negbin", "poisson", "quasipoisson", "study-odp"])
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(cuts=st.sets(st.sampled_from([100, 200])))
    def test_any_split(self, australian, case, cuts):
        # chunks cut on block boundaries
        import nbreserve._bootstrap as bt

        b = 250
        spec = self._spec(case, australian, b)
        one = bt._run_group((spec,), 0, b)[0]
        bounds = [0, *sorted(cuts), b]
        parts = [bt._run_group((spec,), lo, hi)[0] for lo, hi in zip(bounds[:-1], bounds[1:])]
        for got, want in zip((np.concatenate(p) for p in zip(*parts)), one):
            assert np.array_equal(got, want)
        # the splits cross replicates that drop a level: on Australian the
        # single-cell newest accident year draws zero in about a fifth of them
        ay_keep, dy_keep = kept_levels(block_counts(spec), spec.design)
        assert (~np.hstack((ay_keep, dy_keep))).any(axis=1).sum() >= b // 10

    @pytest.mark.parametrize("family", ["negbin", "quasipoisson", "poisson"], ids=["nb", "odp", "poisson"])
    def test_refit_ignores_its_batch(self, australian, family):
        # a stacked block of two specs' negative binomial draws, refitted in
        # sub-batches of any size, gets the whole block's refit bit for bit
        import nbreserve._bootstrap as bt

        first = TestBatchedRefit._spec(australian, 100)
        second = dataclasses.replace(first, prefix=(7,), mu_obs=first.mu_obs * 1.5, param=2.0 * first.param)
        y_star = np.concatenate([block_counts(first), block_counts(second)])
        ay_keep, dy_keep = kept_levels(y_star, first.design)
        assert (~np.hstack((ay_keep, dy_keep))).any(axis=1).sum() >= 20
        whole = bt._refit_batch(y_star, first.design, family)
        assert whole[0].sum() >= 150
        for size in (7, 30, 100, 160):
            parts = [bt._refit_batch(y_star[j:j + size], first.design, family) for j in range(0, len(y_star), size)]
            for got, want in zip((np.concatenate(p) for p in zip(*parts)), whole):
                assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("b, pools", [(250, []), (450, [2])], ids=["3-blocks-inline", "5-blocks-pooled"])
    def test_workers_cut_whole_blocks(self, australian, monkeypatch, inline_pool, b, pools):
        # below four blocks the run is inline; above, each worker's chunk is
        # whole blocks, so two workers draw what one does
        import os

        import nbreserve._bootstrap as bt

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        spec = TestBatchedRefit._spec(australian, b)
        chunks, real = [], bt._run_group

        def recorded(specs, lo, hi):
            chunks.append((lo, hi))
            return real(specs, lo, hi)

        one = bt.run(spec, workers=1)
        monkeypatch.setattr(bt, "_run_group", recorded)
        two = bt.run(spec, workers=2)
        assert inline_pool == pools
        assert chunks == ([(0, 200), (200, 450)] if pools else [(0, b)])
        assert np.array_equal(two[0], one[0]) and np.array_equal(two[1], one[1]) and two[2] == one[2]

    def test_pool_is_capped(self, monkeypatch, inline_pool):
        # a request above the usable cores or the items is capped
        import os

        import nbreserve._bootstrap as bt

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert bt.split_run(lambda lo, hi: (lo, hi), 10, 5000) == [(0, 3), (3, 6), (6, 10)]
        assert bt.split_run(lambda lo, hi: (lo, hi), 4, 2) == [(0, 2), (2, 4)]
        assert inline_pool == [3, 2]
        # below four items the run is inline: one worker, whatever was asked
        assert (bt._pool_size(None, 100), bt._pool_size(None, 2), bt._pool_size(5000, 2)) == (3, 1, 1)
        # a bootstrap counts blocks of 100 replicates
        assert (bt._pool_size(None, 300, 100), bt._pool_size(None, 301, 100), bt._pool_size(2, 5000, 100)) == (1, 3, 2)
        assert bt.split_run(lambda lo, hi: (lo, hi), 1050, None, block=100) == [(0, 300), (300, 700), (700, 1050)]
        assert inline_pool == [3, 2, 3]
        # without affinity masks the usable cores are the CPU count
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert (bt._pool_size(None, 100), bt._pool_size(5000, 100)) == (2, 2)

    def test_one_family_shares_a_batch(self, australian):
        # two negbin specs of one triangle whose draws differ in means,
        # kappa, correction and substreams refit in one batch, and each
        # gets bit for bit what it gets alone
        import dataclasses

        import nbreserve._bootstrap as bt

        first = TestBatchedRefit._spec(australian, 150)
        second = dataclasses.replace(
            first, prefix=(7,), mu_obs=first.mu_obs * 1.5, param=2.0 * first.param, correct=False
        )
        batches, refit_batch = [], bt._refit_batch

        def recorded(y_star, design, family):
            batches.append(len(y_star))
            return refit_batch(y_star, design, family)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bt, "_refit_batch", recorded)
            together = bt.run_group((first, second))
        assert batches == [200, 100]  # one per block: 100 replicates of each spec, then 50 of each
        for spec, got in zip((first, second), together):
            for workers in (1, 2):
                alone = bt.run(spec, workers=workers)
                assert np.array_equal(got[0], alone[0]) and np.array_equal(got[1], alone[1])
                assert got[2] == alone[2]


class TestUnboundedRefit:
    """A replicate whose likelihood has no finite maximum fails; the others keep their draws."""

    # accident year 1's only nonzero count is the lone cell of development
    # year 4, so the likelihood has no finite maximum, and the base fit
    # raises
    QUASI_SEPARATED = [[0, 0, 0, 0, 1], [2, 0, 4, 5], [3, 0, 1], [3, 3], [1]]
    # its extended maximum-likelihood means: zero on accident year 1's
    # zero cells, its lone count on the last, and the chain-ladder of the
    # other years, as exact fractions, so the draws do not depend on how
    # the CPU rounds a fit
    QUASI_MEANS = [[0, 0, 0, 0, 1], [24 / 11, 9 / 11, 3, 5], [16 / 11, 6 / 11, 2], [48 / 11, 18 / 11], [1]]

    @classmethod
    def _quasi_spec(cls, b):
        """An engine spec drawing near the Poisson limit from ``QUASI_MEANS``."""
        import nbreserve._bootstrap as bt
        from nbreserve.dispersion import KAPPA_CAP, bias_correct

        _, design = _counts_and_design(to_long(RunOffTriangle.from_rows(cls.QUASI_SEPARATED)))
        mu = np.array([m for row in cls.QUASI_MEANS for m in row], dtype=float)
        return bt.EngineSpec(
            seed=0, prefix=(), b=b, design=design, mu_obs=mu,
            family="negbin", param=bias_correct(KAPPA_CAP, design.n, design.p), correct=True,
        )

    @classmethod
    def _largest_future_mean(cls, spec):
        from nbreserve.triangle import triangle_cells

        fitted, row_eff, col_eff, _ = _refit_batch(block_counts(spec), spec)
        _, (fut_ay, fut_dy) = triangle_cells(spec.design.n_ay)
        with np.errstate(over="ignore"):
            return fitted, np.exp(row_eff[:, fut_ay] + col_eff[:, fut_dy]).max(axis=1)

    def test_quasi_separated_triangle(self):
        import nbreserve._bootstrap as bt
        from nbreserve.errors import BaseFitFailedError, SeparationError

        spec = self._quasi_spec(100)
        fitted, top = self._largest_future_mean(spec)
        # no refit the engine accepts has a future mean above the largest
        # count the package reads
        assert (top[fitted] <= bt._MAX_COUNT).all()
        # a replicate that keeps accident year 1 is quasi-separated like the
        # triangle: it has no finite maximum, and its refit fails
        keeps = block_counts(spec)[:, spec.design.ay_idx == 0].sum(axis=1) > 0
        assert keeps.sum() >= 50 and not fitted[keeps].any()
        ok, _, _ = bt._run_group((spec,), 0, spec.b)[0]
        assert ok.tolist() == fitted.tolist()
        with pytest.raises(BaseFitFailedError) as info:
            bootstrap(RunOffTriangle.from_rows(self.QUASI_SEPARATED), b=100, seed=0)
        assert isinstance(info.value.__cause__, SeparationError)

    def test_dropped_baseline_year_refits(self):
        # a replicate whose lone accident-year-1 count draws zero drops that
        # baseline year; its other years mostly have a finite maximum, which
        # the refit reaches from the cold start (a start from the base fit's
        # coefficients, whose intercept is accident year 1's, failed them
        # all), and a replicate whose other years have none fails
        spec = self._quasi_spec(100)
        y_star = block_counts(spec)
        dropped = y_star[:, spec.design.ay_idx == 0].sum(axis=1) == 0
        fitted, top = self._largest_future_mean(spec)
        # their future means are the chain-ladder's on the kept years, at most
        # 127.5 here, where refits drifting without bound reached 2.9e17
        assert fitted[dropped].sum() >= 20 and (top[dropped & fitted] <= 1000).all()
        assert fitted[dropped].tolist() == [positive_table_exists(y, spec.design) for y in y_star[dropped]]

    def test_dropped_baseline_year_is_closed_form(self):
        # a replicate that drops accident year 1 leaves the last development
        # year with no count: it adds no development, and the chain-ladder
        # fits the other years
        from nbreserve.glm import Family, _chain_ladder_batch, _irls

        spec = self._quasi_spec(100)
        design = spec.design
        y_star = block_counts(spec).astype(float)
        Y = y_star[y_star[:, design.ay_idx == 0].sum(axis=1) == 0]
        _, mu, ok = _chain_ladder_batch(Y, design)[:3]
        Y, mu = Y[ok], mu[ok]
        assert len(Y) >= 20
        mask, _ = drop_pattern(Y, design)
        score = np.where(mask, Y - mu, 0.0) @ design.X
        assert np.all(np.abs(score).max(axis=1) <= 1e-13 * Y.sum(axis=1))
        ay_keep, dy_keep = kept_levels(Y, design)
        for y, m, ay, dy in zip(Y, mu, ay_keep, dy_keep):
            cells, kept = kept_design(design, ay, dy)
            _, m_irls, _, _, converged, _ = _irls(y[cells], kept, Family.poisson())
            assert converged
            assert m[cells] == pytest.approx(m_irls, rel=1e-12)

    def test_other_replicates_keep_their_draws(self, australian, monkeypatch):
        import nbreserve._bootstrap as bt

        spec = TestBatchedRefit._spec(australian, 60)
        ok, totals, by_ay = bt._run_group((spec,), 0, spec.b)[0]
        fitted, top = self._largest_future_mean(spec)
        assert ok.tolist() == fitted.tolist()
        # a bound below some replicates' largest future mean fails just those
        bound = float(np.median(top[ok]))
        monkeypatch.setattr(bt, "_MAX_COUNT", bound)
        ok_b, totals_b, by_ay_b = bt._run_group((spec,), 0, spec.b)[0]
        assert ok_b.tolist() == (ok & (top <= bound)).tolist() and 0 < ok_b.sum() < ok.sum()
        assert np.array_equal(totals_b[ok_b], totals[ok_b]) and np.array_equal(by_ay_b[ok_b], by_ay[ok_b])


class TestUndrawableRates:
    """An ODP draw at phi 0 scales by the floor 1e-8, so a mean of 1e11 is a Poisson rate of 1e19, past numpy's limit."""

    def test_future_draw_fails_the_replicate(self, australian, monkeypatch):
        # one refit returns phi 0 and future means of 1e11, below the
        # largest count the package reads: it fails without drawing
        import nbreserve._bootstrap as bt

        spec = TestBatchedRefit._spec(australian, 60, "quasipoisson")
        ok, totals, by_ay = bt._run_group((spec,), 0, spec.b)[0]
        i, real = int(np.argmax(ok)), bt._refit_batch

        def phi_zero(y_star, design, family):
            fitted, row_eff, col_eff, disp = real(y_star, design, family)
            row_eff[i], col_eff[i], disp[i] = np.log(1e11), 0.0, 0.0
            return fitted, row_eff, col_eff, disp

        monkeypatch.setattr(bt, "_refit_batch", phi_zero)
        ok_z, totals_z, by_ay_z = bt._run_group((spec,), 0, spec.b)[0]
        assert ok_z.tolist() == [ok[r] and r != i for r in range(spec.b)]
        assert (totals_z[i], by_ay_z[i].sum()) == (0, 0)
        assert bt.run(spec)[2] == (~ok).sum() + 1

    def test_observed_draw_fails_the_spec(self, australian):
        # a spec whose observed draw numpy cannot make fails every
        # replicate; the other specs of its triangle get what they get alone
        import nbreserve._bootstrap as bt

        odp = TestBatchedRefit._spec(australian, 150, "quasipoisson")
        odp = dataclasses.replace(odp, param=0.0, mu_obs=np.full_like(odp.mu_obs, 1e11))
        nb = TestBatchedRefit._spec(australian, 150)
        for got, want in zip(bt.run_group((odp, nb)), (bt.run(odp), bt.run(nb))):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        totals, by_ay, failures = bt.run(odp)
        assert (totals.size, by_ay.shape, failures) == (0, (0, odp.design.n_ay), 150)


@st.composite
def draw_stacks(draw):
    """A (rows, B) stack of count draws, B from 100 to 500, with ties and constant rows.

    Each row is drawn on its own scale: at a small one most draws tie,
    and some rows are one value repeated.
    """
    rows, b = draw(st.integers(1, 6)), draw(st.integers(100, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = np.exp(rng.uniform(-2.0, 14.0, size=(rows, 1)))
    stack = rng.negative_binomial(2.0, 2.0 / (2.0 + scale), size=(rows, b)).astype(float)
    stack[rng.random(rows) < draw(st.sampled_from([0.0, 0.3]))] = float(rng.integers(0, 1000))
    return stack


class TestIntervalRule:
    """``predictive._interval_ends``, the one rule that turns draws into interval ends."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        stack=draw_stacks(),
        levels=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=5),
    )
    def test_per_array_quantiles_that_nest(self, stack, levels):
        from nbreserve.predictive import _interval_ends

        levels = sorted(levels)
        ends = _interval_ends(stack, levels)
        assert ends.shape == (len(levels), 2, len(stack))
        for r, draws in enumerate(stack):
            assert np.array_equal(_interval_ends(draws, levels), ends[:, :, r])
            for k, level in enumerate(levels):
                want = np.quantile(draws, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
                assert np.array_equal(ends[k, :, r], want)
        # a wider level's interval holds a narrower one's
        lower, upper = ends[:, 0], ends[:, 1]
        assert np.all(lower <= upper)
        assert np.all(np.diff(lower, axis=0) <= 0.0) and np.all(np.diff(upper, axis=0) >= 0.0)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, float("nan")])
    def test_level_outside_the_unit_interval(self, level):
        from nbreserve.predictive import _interval_ends

        with pytest.raises(ValueError, match="inside"):
            _interval_ends(np.arange(100.0), [0.5, level])


class TestSummaries:
    def test_quantile_rule(self, dist):
        (s,) = summarize(dist, levels=(0.95,))
        lo, hi = np.quantile(dist.draws_total, [(1 - 0.95) / 2, (1 + 0.95) / 2])
        assert s.lower == pytest.approx(lo, rel=1e-12)
        assert s.upper == pytest.approx(hi, rel=1e-12)
        assert s.point == pytest.approx(dist.point_total)

    def test_cv_definition(self, dist):
        (s,) = summarize(dist, levels=(0.95,))
        cv = 100.0 * dist.draws_total.std(ddof=1) / dist.draws_total.mean()
        assert s.cv_percent == pytest.approx(cv, rel=1e-12)

    def test_interval_nesting(self, dist):
        narrow, wide = summarize(dist, levels=(0.75, 0.95))
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper

    def test_level_validation(self, dist):
        with pytest.raises(ValueError):
            summarize(dist, levels=(1.5,))

    def test_repeated_level_is_one_level(self, dist):
        # the levels are a set, as for nbreserve reserve's --level
        assert summarize(dist, (0.95, 0.95)) == summarize(dist, (0.95,))
        assert summary_json(dist, (0.95, 0.95, 0.75)) == summary_json(dist, (0.75, 0.95))

    def test_too_few_draws(self, australian):
        d = bootstrap(australian, b=60, seed=0)
        with pytest.raises(TooFewDrawsError):
            summarize(d)

    @pytest.mark.parametrize("name, b", [("taylor", 100), ("taylor", 777), ("australian", 777)])
    def test_one_pass_is_per_array(self, request, name, b):
        # the row-wise stack gives each draw array's own quantile, mean and std bits
        d = bootstrap(request.getfixturevalue(name), b=b, seed=2)
        levels = (0.5, 0.75, 0.95)
        arrays = [d.draws_by_ay[i] for i in sorted(d.draws_by_ay)] + [d.draws_total]
        rows = [ay_summary(d, level) + [total] for level, total in zip(levels, summarize(d, levels))]
        for level, level_rows in zip(levels, rows):
            for draws, row in zip(arrays, level_rows):
                lo, hi = np.quantile(draws, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
                mean = float(draws.mean())
                cv = 0.0 if mean == 0.0 else 100.0 * float(draws.std(ddof=1)) / mean
                assert (row.level, row.lower, row.upper, row.cv_percent) == (level, float(lo), float(hi), cv)

    def test_ay_summary_level_validation(self, dist):
        for level in (0.0, 1.0, 1.5, float("nan")):
            with pytest.raises(ValueError):
                ay_summary(dist, level)

    def test_ay_summaries(self, dist):
        rows = ay_summary(dist, level=0.95)
        assert [r.level for r in rows] == [0.95] * 6
        for ay, row in zip(sorted(dist.draws_by_ay), rows):
            lo, hi = np.quantile(dist.draws_by_ay[ay], [(1 - 0.95) / 2, (1 + 0.95) / 2])
            assert row.lower == pytest.approx(lo, rel=1e-12, abs=1e-12)
            assert row.upper == pytest.approx(hi, rel=1e-12)

    def test_final_year_interval_floor(self, dist):
        # the newest accident year has a single observed cell, so its
        # lower band can reach zero
        rows = ay_summary(dist, level=0.95)
        assert rows[-1].lower == 0.0

    def test_json_schema(self, dist):
        doc = summary_json(dist, levels=(0.75, 0.95))
        assert doc["point"] == pytest.approx(dist.point_total)
        assert [x["level"] for x in doc["levels"]] == [0.75, 0.95]
        assert {"lower", "upper"} <= set(doc["levels"][0])
        assert doc["b_effective"] == 500
        assert doc["refit_failures"] == 0
        assert doc["kappa_mle"] == pytest.approx(dist.kappa_mle)
        assert doc["kappa_adj"] == pytest.approx(dist.kappa_adj)

    def test_draws_csv(self, dist):
        text = draws_csv(dist)
        lines = text.strip().splitlines()
        assert lines[0] == "total"
        values = np.array([int(v) for v in lines[1:]])
        assert np.array_equal(values, dist.draws_total)


def test_unknown_sampling_family_is_refused():
    from nbreserve._bootstrap import draw_counts

    with pytest.raises(ValueError, match="unknown sampling family 'gamma'"):
        draw_counts("gamma", None, np.ones(3), substream(0, 0, 0))


def test_no_replicates_is_refused(australian):
    with pytest.raises(ValueError, match="b must be at least 1"):
        bootstrap(australian, b=0)
