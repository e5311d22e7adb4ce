import csv
import io

import numpy as np
import pytest

from nbreserve import Family, fit, pearson_residuals, profile_kappa, residuals_by_factor, to_long
from nbreserve.diagnostics import export_profile, residuals_csv
from nbreserve.dispersion import KAPPA_CAP


@pytest.fixture(scope="module")
def poisson_fit(australian):
    return fit(to_long(australian), Family.poisson())


@pytest.fixture(scope="module")
def nb_fit(australian):
    return fit(to_long(australian), Family.negbin(4.8))


class TestResiduals:
    def test_poisson_formula(self, poisson_fit):
        rs = pearson_residuals(poisson_fit)
        assert len(rs) == 28
        expect = (poisson_fit.y - poisson_fit.fitted_mu) / np.sqrt(poisson_fit.fitted_mu)
        assert rs.pearson == pytest.approx(expect, rel=1e-12)

    def test_negbin_formula(self, nb_fit):
        rs = pearson_residuals(nb_fit)
        mu = nb_fit.fitted_mu
        expect = (nb_fit.y - mu) / np.sqrt(mu + mu * mu / 4.8)
        assert rs.pearson == pytest.approx(expect, rel=1e-12)

    def test_external_kappa_overrides(self, poisson_fit):
        rs = pearson_residuals(poisson_fit, kappa=4.8)
        mu = poisson_fit.fitted_mu
        expect = (poisson_fit.y - mu) / np.sqrt(mu + mu * mu / 4.8)
        assert rs.pearson == pytest.approx(expect, rel=1e-12)

    def test_negbin_scaling_shrinks_large_cells(self, poisson_fit):
        raw = pearson_residuals(poisson_fit)
        scaled = pearson_residuals(poisson_fit, kappa=4.8)
        assert np.all(np.abs(scaled.pearson) <= np.abs(raw.pearson) + 1e-12)

    def test_calendar_index(self, poisson_fit):
        rs = pearson_residuals(poisson_fit)
        assert np.array_equal(rs.calendar, rs.ay + rs.dy)
        assert rs.calendar.min() == 1 and rs.calendar.max() == 7

    def test_cap_is_the_poisson_limit(self, australian):
        # sampling treats kappa at the cap as Poisson; the residuals do too
        at_cap = fit(to_long(australian), Family.negbin(KAPPA_CAP))
        expect = (at_cap.y - at_cap.fitted_mu) / np.sqrt(at_cap.fitted_mu)
        assert pearson_residuals(at_cap).pearson.tolist() == expect.tolist()

    def test_bad_kappa(self, poisson_fit):
        with pytest.raises(ValueError):
            pearson_residuals(poisson_fit, kappa=-1.0)


class TestGrouping:
    def test_group_sizes(self, poisson_fit):
        rs = pearson_residuals(poisson_fit)
        by_ay = residuals_by_factor(rs, "ay")
        assert [g.level for g in by_ay] == list(range(1, 8))
        assert [g.n for g in by_ay] == [7, 6, 5, 4, 3, 2, 1]
        by_dy = residuals_by_factor(rs, "dy")
        assert [g.n for g in by_dy] == [7, 6, 5, 4, 3, 2, 1]
        by_cal = residuals_by_factor(rs, "calendar")
        assert [g.n for g in by_cal] == [1, 2, 3, 4, 5, 6, 7]

    def test_quartiles_ordered(self, poisson_fit):
        rs = pearson_residuals(poisson_fit)
        for factor in ("ay", "dy", "calendar"):
            for g in residuals_by_factor(rs, factor):
                assert g.q1 <= g.median <= g.q3

    def test_unknown_factor(self, poisson_fit):
        rs = pearson_residuals(poisson_fit)
        with pytest.raises(ValueError):
            residuals_by_factor(rs, "quarter")


class TestCsvExports:
    def test_residuals_csv(self, poisson_fit):
        rs = pearson_residuals(poisson_fit)
        rows = list(csv.DictReader(io.StringIO(residuals_csv(rs))))
        assert len(rows) == 28
        assert set(rows[0]) == {"ay", "dy", "calendar", "fitted", "pearson"}
        assert int(rows[0]["ay"]) == 1 and int(rows[0]["dy"]) == 0
        got = float(rows[5]["pearson"])
        assert got == pytest.approx(rs.pearson[5], rel=1e-6)

    def test_profile_csv(self, australian):
        est = profile_kappa(to_long(australian))
        rows = list(csv.DictReader(io.StringIO(export_profile(est))))
        assert set(rows[0]) == {"kappa", "loglik", "marker"}
        markers = {r["marker"] for r in rows if r["marker"]}
        assert markers == {"mle", "ci_lower", "ci_upper"}
        mle_row = next(r for r in rows if r["marker"] == "mle")
        assert float(mle_row["kappa"]) == pytest.approx(est.kappa_mle, rel=1e-6)
        # rows adjacent to the optimum can tie at printed precision
        best = max(float(r["loglik"]) for r in rows)
        assert float(mle_row["loglik"]) >= best - 1e-6
