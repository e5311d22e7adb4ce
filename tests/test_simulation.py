import math

import numpy as np
import pytest

from nbreserve import DgpConfig, default_config, generate, run_study
from nbreserve.errors import ConfigError
from nbreserve.simulation import (
    KAPPA_GRID,
    LEVELS,
    METHODS,
    SCENARIOS,
    _mean_matrix,
    simulate_square,
    study_csv,
    study_json,
)
from nbreserve._rng import substream

from conftest import drop_pattern


class TestConfig:
    def test_defaults(self):
        c = default_config()
        assert c.dimension == 10
        assert c.scenario == "correct"
        assert len(c.true_alpha) == 10
        assert sum(c.true_dev_weights) == pytest.approx(1.0, abs=1e-12)
        assert c.kappa_true in KAPPA_GRID

    def test_overrides(self):
        c = default_config(kappa_true=2.0, n_sim=7, seed=99)
        assert c.kappa_true == 2.0 and c.n_sim == 7 and c.seed == 99

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            default_config(scenario="bogus")

    def test_bad_kappa(self):
        with pytest.raises(ConfigError):
            default_config(kappa_true=-3.0)

    def test_weights_must_normalise(self):
        with pytest.raises(ConfigError):
            DgpConfig(
                dimension=3,
                true_alpha=(5.0, 5.0, 5.0),
                true_dev_weights=(0.5, 0.4, 0.2),
                kappa_true=10.0,
            )

    def test_alpha_length_checked(self):
        with pytest.raises(ConfigError):
            default_config(dimension=5)

    def test_scenarios_exported(self):
        assert set(SCENARIOS) == {"correct", "poisson", "calendar", "varying-kappa"}
        assert METHODS == ("poisson", "odp", "nb_mle", "nb_corrected")
        assert LEVELS == (0.75, 0.95)


class TestMeanMatrix:
    def test_shape_and_anchor(self):
        c = default_config()
        mu = _mean_matrix(c)
        assert mu.shape == (10, 10)
        # beta is anchored at the first development year
        assert mu[:, 0] == pytest.approx(np.exp(c.true_alpha), rel=1e-12)

    def test_calendar_inflation(self):
        base = _mean_matrix(default_config())
        inflated = _mean_matrix(default_config(scenario="calendar", inflation_rate=0.05))
        expo = np.arange(10)[:, None] + np.arange(10)[None, :]
        assert inflated == pytest.approx(base * 1.05**expo, rel=1e-12)

    def test_row_profile_follows_weights(self):
        c = default_config()
        mu = _mean_matrix(c)
        w = np.asarray(c.true_dev_weights)
        assert mu[3] / mu[3].sum() == pytest.approx(w, rel=1e-12)


class TestSimulate:
    def test_poisson_moments(self):
        c = default_config(scenario="poisson")
        draws = simulate_square(c, substream(5, 9), size=4000)
        mu = _mean_matrix(c)
        cell = draws[:, 2, 3]
        assert cell.mean() == pytest.approx(mu[2, 3], rel=0.05)
        assert cell.var(ddof=1) == pytest.approx(mu[2, 3], rel=0.10)

    def test_overdispersed_moments(self):
        c = default_config(kappa_true=5.0)
        draws = simulate_square(c, substream(5, 10), size=4000)
        mu = _mean_matrix(c)
        cell = draws[:, 1, 0]
        expect_var = mu[1, 0] + mu[1, 0] ** 2 / 5.0
        assert cell.mean() == pytest.approx(mu[1, 0], rel=0.05)
        assert cell.var(ddof=1) == pytest.approx(expect_var, rel=0.15)

    def test_varying_kappa_by_column(self):
        c = default_config(scenario="varying-kappa")
        draws = simulate_square(c, substream(5, 11), size=6000)
        mu = _mean_matrix(c)
        kappa = np.asarray(c.kappa_by_dy)
        for j in (0, 5):
            cell = draws[:, 0, j]
            expect = mu[0, j] + mu[0, j] ** 2 / kappa[j]
            assert cell.var(ddof=1) == pytest.approx(expect, rel=0.15)

    def test_counts_nonnegative(self):
        c = default_config(kappa_true=2.0)
        draws = simulate_square(c, substream(5, 12), size=50)
        assert draws.min() >= 0
        assert np.issubdtype(draws.dtype, np.integer)


class TestGenerate:
    def test_replicate_determinism(self):
        c = default_config(kappa_true=10.0)
        t1, out1 = generate(c, 3)
        t2, out2 = generate(c, 3)
        assert t1 == t2 and out1 == out2
        t3, _ = generate(c, 4)
        assert t1 != t3

    def test_outstanding_is_future_mass(self):
        # regenerate the same square and compare against its future half
        c = default_config(kappa_true=10.0)
        t, out = generate(c, 6)
        full = simulate_square(c, substream(c.seed, 0, 6))
        assert t.dimension == 10
        observed = sum(int(full[i, : 10 - i].sum()) for i in range(10))
        assert out == int(full.sum()) - observed
        for i in range(10):
            assert t.row(i + 1).tolist() == full[i, : 10 - i].tolist()


@pytest.fixture(scope="module")
def small():
    return run_study(
        default_config(kappa_true=10.0, n_sim=3, b=60, seed=2),
        methods=("poisson", "nb_mle"),
    )


@pytest.fixture(scope="module")
def tiny():
    return run_study(
        default_config(scenario="poisson", n_sim=2, b=50, seed=4),
        methods=("poisson",),
    )


class TestStudy:
    def test_aggregates(self, small):
        assert [m.method for m in small.methods] == ["poisson", "nb_mle"]
        for m in small.methods:
            assert m.n_completed + m.n_failed == 3
            for level in LEVELS:
                assert 0.0 <= m.coverage[level] <= 1.0
                assert m.mean_width[level] >= 0.0
            assert math.isfinite(m.bias) and m.rmse >= 0.0

    def test_kappa_tracked_only_for_nb(self, small):
        pois, nb = small.methods
        assert pois.mean_kappa is None and pois.at_boundary_fraction is None
        assert nb.mean_kappa is not None and nb.at_boundary_fraction is not None

    def test_point_shared_across_methods(self, small):
        # bias and rmse come from the common chain-ladder point estimate
        pois, nb = small.methods
        assert pois.bias == pytest.approx(nb.bias, rel=1e-12)
        assert pois.rmse == pytest.approx(nb.rmse, rel=1e-12)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            run_study(default_config(n_sim=1, b=50), methods=("bogus",))

    def test_refused_chain_ladder_fails_every_method(self, monkeypatch):
        # expected counts of 0.2 a cell: most triangles have a zero column
        # sum, which the chain-ladder refuses; those triangles fail every
        # method, and the study still accounts for every replicate
        from nbreserve import simulation
        from nbreserve.errors import ReservingError

        real, refused = simulation.chain_ladder, []

        def counted(t):
            try:
                return real(t)
            except ReservingError as exc:
                refused.append(exc)
                raise

        monkeypatch.setattr(simulation, "chain_ladder", counted)
        config = default_config(dimension=5, true_alpha=[math.log(0.2)] * 5, true_dev_weights=[0.2] * 5,
                                n_sim=40, b=20, seed=1)
        result = run_study(config)
        assert len(refused) == 24
        for m in result.methods:
            assert m.n_failed + m.n_completed == 40 and m.n_failed >= 24

    def test_worker_invariance(self):
        cfg = default_config(scenario="poisson", n_sim=4, b=50, seed=3)
        a = run_study(cfg, methods=("poisson",), workers=1)
        b = run_study(cfg, methods=("poisson",), workers=2)
        ma, mb = a.methods[0], b.methods[0]
        assert ma.bias == mb.bias and ma.rmse == mb.rmse
        assert ma.coverage == mb.coverage and ma.mean_width == mb.mean_width


class TestExport:
    def test_csv_layout(self, tiny):
        lines = study_csv(tiny).strip().splitlines()
        assert lines[0] == "method,kappa_true,bias,rmse,cov75,cov95,width75,width95"
        fields = lines[1].split(",")
        assert fields[0] == "poisson"
        assert fields[1] == "inf"
        float(fields[2])

    def test_csv_varying_kappa_label(self):
        res = run_study(
            default_config(scenario="varying-kappa", n_sim=2, b=50, seed=4),
            methods=("poisson",),
        )
        assert study_csv(res).splitlines()[1].split(",")[1] == "varying"

    def test_json_round_trip(self, tiny):
        doc = study_json(tiny)
        assert doc["config"]["scenario"] == "poisson"
        assert doc["config"]["n_sim"] == 2
        (entry,) = doc["methods"]
        assert entry["method"] == "poisson"
        assert "coverage" in entry and "mean_width" in entry


class TestStudyPinned:
    # study_json of default_config(n_sim=3, b=50, seed=8). Replicates 1
    # and 2 have an all-zero development year 9 (one cell), which the
    # base fits drop: its base means are exactly zero, and rng.poisson(0)
    # consumes no variate, so these numbers depend on that rule.
    # mean_kappa is that of the joint Newton fit, whose kappa scores are
    # at rounding level: it reads 18.108752632452006 with numpy's AVX-512
    # kernels and 18.10875263245237 with its AVX2 ones, a move of 2.0e-14
    # relative (tests/test_cpu_targets.py re-runs this test under AVX2);
    # every other figure is the same bits under both
    KAPPAS = {18.108752632452006, 18.10875263245237}
    PINNED = {
        "poisson": (0.0, 0.0, 161.5, 283.05833333333345, False),
        "odp": (0.3333333333333333, 0.6666666666666666, 888.1666666666666, 1429.8499999999997, False),
        "nb_mle": (0.3333333333333333, 0.6666666666666666, 1109.875, 1775.3999999999996, True),
        "nb_corrected": (0.6666666666666666, 1.0, 1342.7916666666667, 2428.183333333333, True),
    }

    def test_study_json_pinned(self):
        config = default_config(n_sim=3, b=50, seed=8)
        for s in (1, 2):
            t, _ = generate(config, s)
            assert t.cell(1, 9) == 0
        doc = study_json(run_study(config))
        assert [m["method"] for m in doc["methods"]] == list(self.PINNED)
        for m in doc["methods"]:
            cov75, cov95, w75, w95, negbin = self.PINNED[m["method"]]
            assert m["bias"] == 146.83928075724543
            assert m["rmse"] == 553.5753707630877
            assert m["coverage"] == {"0.75": cov75, "0.95": cov95}
            assert m["mean_width"] == {"0.75": w75, "0.95": w95}
            if negbin:
                assert m["mean_kappa"] in self.KAPPAS and m["at_boundary_fraction"] == 0.0
            else:
                assert m["mean_kappa"] is None and m["at_boundary_fraction"] is None
            assert (m["n_failed"], m["n_completed"]) == (0, 3)

    def test_base_fits_drop_all_zero_level(self):
        # user data raise, synthetic data drop: the study's base fits
        # take the engine's masked fit, while fit and bootstrap reject
        # the same triangle
        from nbreserve import bootstrap, fit
        from nbreserve._bootstrap import fit_kept_levels
        from nbreserve.dispersion import KAPPA_CAP, _nb_mle_batch
        from nbreserve.errors import BaseFitFailedError, SeparationError
        from nbreserve.glm import Family, _chain_ladder_batch, _counts_and_design, pearson_statistic
        from nbreserve.simulation import _method_base
        from nbreserve.triangle import to_long

        t, _ = generate(default_config(n_sim=3, b=50, seed=8), 1)
        y, design = _counts_and_design(to_long(t))
        # development year 9 alone has a zero total
        assert np.nonzero(np.bincount(design.dy_idx, y) == 0)[0].tolist() == [9]
        mask, pin = drop_pattern(y[None], design)
        dropped = ~mask[0]
        assert dropped.sum() == 1 and np.nonzero(pin[0])[0].tolist() == [design.n_ay + 8]

        mu, kappa = _method_base("negbin", y, design)
        coef = fit_kept_levels(y[None], design, "negbin")[1][0]
        poisson = _chain_ladder_batch(y[None], design)
        ref_coef, ref_mu, ref_kappa, ok, n_iter = _nb_mle_batch(y[None], design, poisson)
        assert ok[0] and n_iter[0] <= 10
        assert np.array_equal(coef, ref_coef[0])
        assert kappa == ref_kappa[0] < KAPPA_CAP
        assert np.all(mu[dropped] == 0.0)
        assert np.array_equal(mu[~dropped], ref_mu[0][~dropped])

        # the odp phi counts the kept cells less the free coefficients
        mu, phi = _method_base("quasipoisson", y, design)
        coef = fit_kept_levels(y[None], design, "quasipoisson")[1][0]
        assert np.all(mu[dropped] == 0.0) and coef[pin[0]].tolist() == [0.0]
        dof = (design.n - 1) - (design.p - 1)
        assert phi == pytest.approx(float(pearson_statistic(y[~dropped], mu[~dropped])) / dof, rel=1e-14)

        with pytest.raises(SeparationError):
            fit(to_long(t), Family.poisson())
        with pytest.raises(BaseFitFailedError):
            bootstrap(t, b=20)

    def test_no_residual_dof_fails_dividing_methods(self):
        # a 2x2 triangle has as many observed cells as parameters: odp has
        # no phi and nb_corrected no correction, so both fail; the others run
        config = DgpConfig(
            dimension=2, true_alpha=(5.0, 5.0), true_dev_weights=(0.6, 0.4), kappa_true=10.0, n_sim=2, b=20
        )
        failed = {m.method: m.n_failed for m in run_study(config).methods}
        assert failed == {"poisson": 0, "odp": 2, "nb_mle": 0, "nb_corrected": 2}


def test_one_interval_call_per_method_and_triangle(monkeypatch):
    # both levels of a method come from one call of the package's interval
    # rule, and the study makes no quantile call of its own
    from nbreserve import simulation

    calls = {"ends": 0, "quantile": 0}
    real_ends, real_quantile = simulation._interval_ends, np.quantile

    def ends(*args):
        calls["ends"] += 1
        return real_ends(*args)

    def quantile(*args, **kwargs):
        calls["quantile"] += 1
        return real_quantile(*args, **kwargs)

    monkeypatch.setattr(simulation, "_interval_ends", ends)
    monkeypatch.setattr(np, "quantile", quantile)
    result = run_study(default_config(n_sim=2, b=50, seed=8))
    scored = sum(m.n_completed for m in result.methods)
    assert scored == 8 and calls == {"ends": scored, "quantile": scored}


class TestGroupPass:
    """One engine pass per triangle gives every method the draws of its own run."""

    # dimension 3 with thin middle years: replicates whose accident year 2
    # draws zero leave odp no residual dof while poisson still fits, and one
    # triangle's odp base fit has no dof at all
    THIN = DgpConfig(
        dimension=3, true_alpha=(2.0, 0.7, 2.0), true_dev_weights=(0.5, 0.3, 0.2), kappa_true=5.0, n_sim=6, b=120, seed=1
    )

    @staticmethod
    def _checked(monkeypatch):
        """Make every group pass also run each spec alone and compare; returns the failures seen."""
        from nbreserve import _bootstrap

        real, seen = _bootstrap.run_group, []

        def checked(specs):
            got = real(specs)
            for spec, (totals, by_ay, failures) in zip(specs, got):
                alone = _bootstrap.run(spec)
                assert np.array_equal(totals, alone[0]) and np.array_equal(by_ay, alone[1])
                assert failures == alone[2]
            seen.append({spec.family: failures for spec, (_, _, failures) in zip(specs, got)})
            return got

        monkeypatch.setattr(_bootstrap, "run_group", checked)
        return seen

    def test_all_zero_level_and_several_batches(self, monkeypatch):
        seen = self._checked(monkeypatch)
        config = default_config(n_sim=2, b=150, seed=8)  # replicate 1 has an all-zero development year
        run_study(config)
        assert [sorted(s) for s in seen] == [["negbin", "poisson", "quasipoisson"]] * 2

    def test_odp_without_dof(self, monkeypatch):
        seen = self._checked(monkeypatch)
        run_study(self.THIN)
        assert any("quasipoisson" not in s for s in seen)  # a base fit with no dof
        assert any(s.get("quasipoisson", 0) > s["poisson"] for s in seen)  # replicate refits with none

    def test_failed_base_fit(self, monkeypatch):
        from nbreserve import simulation

        seen = self._checked(monkeypatch)
        base = simulation._method_base
        monkeypatch.setattr(simulation, "_method_base", lambda tag, y, d: None if tag == "negbin" else base(tag, y, d))
        result = run_study(default_config(n_sim=2, b=60, seed=8))
        assert [sorted(s) for s in seen] == [["poisson", "quasipoisson"]] * 2
        assert {m.method: m.n_failed for m in result.methods} == {"poisson": 0, "odp": 0, "nb_mle": 2, "nb_corrected": 2}

    @pytest.mark.parametrize("config", [default_config(n_sim=4, b=60, seed=8), THIN], ids=["default", "thin"])
    def test_worker_invariance_all_methods(self, config):
        assert study_json(run_study(config, workers=2)) == study_json(run_study(config, workers=1))


def test_failed_base_fit_fails_the_methods_it_serves(monkeypatch):
    # a joint NB fit that fails on every triangle fails nb_mle and
    # nb_corrected, each replicate counted in n_failed, and leaves the
    # Poisson methods as they were
    from nbreserve import _bootstrap

    real = _bootstrap.fit_kept_levels

    def failing_negbin(Y, design, family):
        ok, *rest = real(Y, design, family)
        return (np.zeros_like(ok) if family == "negbin" else ok, *rest)

    config = default_config(n_sim=2, b=20, seed=0)
    before = {m.method: m for m in run_study(config).methods}
    monkeypatch.setattr(_bootstrap, "fit_kept_levels", failing_negbin)
    after = {m.method: m for m in run_study(config).methods}
    assert {name: (m.n_failed, m.n_completed) for name, m in after.items()} == {
        "poisson": (0, 2), "odp": (0, 2), "nb_mle": (2, 0), "nb_corrected": (2, 0),
    }
    assert after["poisson"] == before["poisson"] and after["odp"] == before["odp"]
