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
    # at rounding level
    PINNED = {
        "poisson": (0.0, 0.0, 193.625, 343.9833333333333, None, None),
        "odp": (0.3333333333333333, 0.6666666666666666, 1008.5833333333334, 1547.7583333333332, None, None),
        "nb_mle": (0.3333333333333333, 0.3333333333333333, 1081.4583333333333, 1780.8916666666664, 18.108752632451345, 0.0),
        "nb_corrected": (0.3333333333333333, 1.0, 1394.3333333333333, 2362.825, 18.108752632451345, 0.0),
    }

    def test_study_json_pinned(self):
        config = default_config(n_sim=3, b=50, seed=8)
        for s in (1, 2):
            t, _ = generate(config, s)
            assert t.cell(1, 9) == 0
        doc = study_json(run_study(config))
        assert [m["method"] for m in doc["methods"]] == list(self.PINNED)
        for m in doc["methods"]:
            cov75, cov95, w75, w95, kappa, at_boundary = self.PINNED[m["method"]]
            assert m["bias"] == 146.83928075724543
            assert m["rmse"] == 553.5753707630877
            assert m["coverage"] == {"0.75": cov75, "0.95": cov95}
            assert m["mean_width"] == {"0.75": w75, "0.95": w95}
            assert m["mean_kappa"] == kappa
            assert m["at_boundary_fraction"] == at_boundary
            assert (m["n_failed"], m["n_completed"]) == (0, 3)

    def test_base_fits_drop_all_zero_level(self):
        # user data raise, synthetic data drop: the study's base fits
        # take the engine's masked fit, while fit and bootstrap reject
        # the same triangle
        from nbreserve import bootstrap, fit
        from nbreserve.dispersion import _nb_mle_batch
        from nbreserve.errors import BaseFitFailedError, SeparationError
        from nbreserve.glm import Family, drop_masks, pearson_statistic
        from nbreserve.simulation import _method_base, _observed
        from nbreserve.triangle import to_long

        t, _ = generate(default_config(n_sim=3, b=50, seed=8), 1)
        y, design = _observed(t)
        ay_keep = np.ones((1, design.n_ay), dtype=bool)
        dy_keep = np.arange(design.n_dy)[None] != 9
        assert np.array_equal(np.bincount(design.dy_idx, y) == 0, ~dy_keep[0])
        mask, pin = drop_masks(design, ay_keep, dy_keep)
        dropped = ~mask[0]
        assert dropped.sum() == 1

        coef, mu, kappa, at_boundary = _method_base("negbin", y, design)
        ref_coef, ref_mu, ref_kappa, ok, n_iter = _nb_mle_batch(y[None], design, mask=mask, pin=pin)
        assert ok[0] and n_iter[0] <= 10
        assert np.array_equal(coef, ref_coef[0])
        assert kappa == ref_kappa[0] and at_boundary is False
        assert np.all(mu[dropped] == 0.0)
        assert np.array_equal(mu[~dropped], ref_mu[0][~dropped])

        # the odp phi counts the kept cells less the free coefficients
        coef, mu, phi, at_boundary = _method_base("poisson", y, design)
        assert np.all(mu[dropped] == 0.0) and coef[pin[0]].tolist() == [0.0]
        dof = (design.n - 1) - (design.p - 1)
        assert phi == pytest.approx(float(pearson_statistic(y[~dropped], mu[~dropped])) / dof, rel=1e-14)
        assert at_boundary is None

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
