import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import nbreserve
from nbreserve import Family, RunOffTriangle, errors, fit, serialize_triangle, to_long
from nbreserve.cli import _future_sum, main


@pytest.fixture(scope="module")
def triangle_csv(tmp_path_factory, australian):
    path = tmp_path_factory.mktemp("data") / "triangle.csv"
    path.write_text(serialize_triangle(australian), encoding="utf-8")
    return str(path)


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    assert result.exit_code == 0, result.output
    return result


def test_import_loads_neither_scipy_nor_multiprocessing():
    # the runtime needs numpy and click only; scipy is a test dependency,
    # and a serial run never starts worker processes
    code = (
        "import sys, nbreserve.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    )
    src = str(Path(nbreserve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; the substream keys must not
    # pull it into the start-up of commands that draw nothing
    code = "import sys, nbreserve.cli; print('numpy.random' in sys.modules)"
    src = str(Path(nbreserve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


class TestFit:
    def test_nb_fit(self, runner, triangle_csv, tmp_path):
        out = str(tmp_path / "out")
        result = run_ok(runner, ["fit", triangle_csv, "--out-dir", out])
        assert "kappa_mle" in result.output
        doc = json.loads((Path(out) / "fit.json").read_text())
        assert doc["family"] == "negbin"
        assert doc["kappa_mle"] == pytest.approx(4.79998, abs=1e-3)
        assert doc["kappa_adj"] == pytest.approx(2.5714, abs=1e-3)
        assert doc["lambda"] == pytest.approx(2550.07, abs=0.1)
        assert doc["cl_total_reserve"] == pytest.approx(3191.036, abs=1e-3)
        assert len(doc["dev_weights"]) == 7
        assert sum(doc["dev_weights"]) == pytest.approx(1.0, abs=1e-9)

    def test_poisson_future_matches_cl(self, runner, triangle_csv, tmp_path):
        out = str(tmp_path / "out")
        run_ok(runner, ["fit", triangle_csv, "--family", "poisson", "--out-dir", out])
        doc = json.loads((Path(out) / "fit.json").read_text())
        assert doc["future_sum"] == pytest.approx(doc["cl_total_reserve"], rel=1e-8)

    @pytest.mark.parametrize(
        "family", [Family.poisson(), Family.quasi_poisson(), Family.negbin(4.8)], ids=["poisson", "odp", "nb"]
    )
    @pytest.mark.parametrize("name", ["australian", "taylor"])
    def test_future_sum_equals_cell_loop(self, request, name, family):
        # the reported future sum is the left-to-right sum of the future cell means
        model = fit(to_long(request.getfixturevalue(name)), family)
        I, loop = model.n_ay, 0.0
        for i in range(1, I + 1):
            for j in range(I):
                if i + j > I:
                    loop += model.mu_at(i, j)
        assert _future_sum(model) == loop

    def test_odp_reports_phi(self, runner, triangle_csv, tmp_path):
        out = str(tmp_path / "out")
        result = run_ok(runner, ["fit", triangle_csv, "--family", "odp", "--out-dir", out])
        assert "phi" in result.output
        doc = json.loads((Path(out) / "fit.json").read_text())
        assert doc["phi"] == pytest.approx(174.03, abs=0.01)

    def test_manifest_written(self, runner, triangle_csv, tmp_path):
        out = str(tmp_path / "out")
        run_ok(runner, ["fit", triangle_csv, "--out-dir", out])
        manifest = json.loads((Path(out) / "manifest.json").read_text())
        assert manifest["subcommand"] == "fit"
        assert manifest["tool"] == "nbreserve"
        assert "fit.json" in manifest["outputs"]
        fit_doc = json.loads((Path(out) / "fit.json").read_text())
        assert fit_doc["run_id"] == manifest["run_id"]

    def test_fit_json_keys(self, runner, triangle_csv, tmp_path):
        out = str(tmp_path / "out")
        run_ok(runner, ["fit", triangle_csv, "--out-dir", out])
        doc = json.loads((Path(out) / "fit.json").read_text())
        assert set(doc) == {
            "run_id", "family", "kappa_mle", "kappa_adj", "kappa_ci95", "at_boundary",
            "loglik_nb", "loglik_poisson", "lambda", "p_value", "aic_nb", "aic_poisson",
            "bic_nb", "bic_poisson", "expected_ultimates", "dev_weights", "future_sum",
            "cl_total_reserve", "condition_number", "n_obs", "n_params",
        }

    def test_run_id_follows_input_content(self, runner, australian, tmp_path):
        # the same path and flags with other counts is another run
        path = tmp_path / "triangle.csv"
        rows = [australian.row(i).tolist() for i in range(1, australian.dimension + 1)]
        manifests = []
        for bump in (0, 1):
            rows[0][0] += bump
            path.write_text(serialize_triangle(RunOffTriangle(rows)), encoding="utf-8")
            out = tmp_path / f"out{bump}"
            run_ok(runner, ["fit", str(path), "--family", "poisson", "--out-dir", str(out)])
            manifests.append(json.loads((out / "manifest.json").read_text()))
        first, second = manifests
        assert first["params"]["input"] == second["params"]["input"]
        assert first["params"]["input_sha256"] != second["params"]["input_sha256"]
        assert first["run_id"] != second["run_id"]
        assert second["params"]["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


class TestReserve:
    def test_outputs(self, runner, triangle_csv, tmp_path):
        out = str(tmp_path / "out")
        result = run_ok(
            runner,
            ["reserve", triangle_csv, "-B", "300", "--level", "0.75", "--level", "0.95",
             "--threads", "1", "--out-dir", out],
        )
        assert "total" in result.output
        for name in ("reserve.json", "reserve.csv", "draws.csv", "manifest.json"):
            assert (Path(out) / name).exists()
        doc = json.loads((Path(out) / "reserve.json").read_text())
        assert doc["b_effective"] == 300
        assert [x["level"] for x in doc["levels"]] == [0.75, 0.95]
        csv_lines = (Path(out) / "reserve.csv").read_text().strip().splitlines()
        assert csv_lines[0].startswith("# run_id:")
        assert csv_lines[1] == "ay,level,point,lower,upper,cv_percent"
        # 6 developing accident years plus the total row, per level
        assert sum(1 for l in csv_lines if l.startswith("total,")) == 2
        assert sum(1 for l in csv_lines if l.startswith("19")) == 12

    def test_outputs_pinned(self, runner, triangle_csv, tmp_path):
        # reserve.json and reserve.csv as the per-array summaries wrote them
        # (lines naming the run id left out: it hashes the input's path)
        out = tmp_path / "out"
        run_ok(
            runner,
            ["reserve", triangle_csv, "-B", "300", "--level", "0.75", "--level", "0.95", "--level", "0.5",
             "--threads", "1", "--out-dir", str(out)],
        )
        digests = {}
        for name in ("reserve.json", "reserve.csv"):
            body = "\n".join(l for l in (out / name).read_text().splitlines() if "run_id" not in l)
            digests[name] = hashlib.sha256(body.encode()).hexdigest()
        assert digests == {
            "reserve.json": "68f82d72898aa7ecfd1cbe01a4266c15f0fa7a23667b09ac4c6381339cb2577c",
            "reserve.csv": "732250369ff884df4d304a5357f3ca90ef7a3c3bb175ffeb63a65cf6912dd348",
        }

    def test_seed_determinism(self, runner, triangle_csv, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_ok(runner, ["reserve", triangle_csv, "-B", "200", "--threads", "1", "--seed", "5", "--out-dir", a])
        run_ok(runner, ["reserve", triangle_csv, "-B", "200", "--threads", "2", "--seed", "5", "--out-dir", b])
        draws_a = (Path(a) / "draws.csv").read_text()
        draws_b = (Path(b) / "draws.csv").read_text()
        assert draws_a == draws_b

    def test_env_seed(self, runner, triangle_csv, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_ok(runner, ["reserve", triangle_csv, "-B", "150", "--threads", "1", "--out-dir", a],
               env={"NBRESERVE_SEED": "7"})
        run_ok(runner, ["reserve", triangle_csv, "-B", "150", "--threads", "1", "--seed", "7", "--out-dir", b])
        assert (Path(a) / "draws.csv").read_text() == (Path(b) / "draws.csv").read_text()

    def test_no_correct_flag(self, runner, triangle_csv, tmp_path):
        out = str(tmp_path / "out")
        run_ok(runner, ["reserve", triangle_csv, "-B", "150", "--no-correct", "--threads", "1", "--out-dir", out])
        doc = json.loads((Path(out) / "reserve.json").read_text())
        assert doc["kappa_mle"] == pytest.approx(4.79998, abs=1e-3)

    def test_too_few_draws_exit_one(self, runner, triangle_csv, tmp_path):
        result = runner.invoke(
            main,
            ["reserve", triangle_csv, "-B", "50", "--threads", "1", "--out-dir", str(tmp_path / "o")],
        )
        assert result.exit_code == 1
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["kind"] == "TooFewDraws"


class TestSimulate:
    def test_tiny_study(self, runner, tmp_path):
        out = str(tmp_path / "out")
        result = run_ok(
            runner,
            ["simulate", "--scenario", "poisson", "--nsim", "2", "-B", "50",
             "--threads", "1", "--out-dir", out],
        )
        assert result.output.splitlines()[0].startswith("method,")
        study = (Path(out) / "study.csv").read_text()
        assert "poisson,inf" in study
        doc = json.loads((Path(out) / "study.json").read_text())
        assert doc["config"]["n_sim"] == 2

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "dgp.json"
        cfg.write_text(json.dumps({"dimension": 6, "true_alpha": [6.0] * 6,
                                   "true_dev_weights": [0.5, 0.2, 0.12, 0.08, 0.06, 0.04],
                                   "n_sim": 2, "b": 50, "kappa_true": 5.0}))
        out = str(tmp_path / "out")
        run_ok(runner, ["simulate", "--config", str(cfg), "--threads", "1", "--out-dir", out])
        doc = json.loads((Path(out) / "study.json").read_text())
        assert doc["config"]["dimension"] == 6

    def test_run_id_follows_config_file(self, runner, tmp_path):
        # two configs that differ only in a key the CLI has no option for
        ids = []
        for name, level in (("a", 6.0), ("b", 6.5)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"dimension": 6, "true_alpha": [level] * 6,
                                       "true_dev_weights": [0.5, 0.2, 0.12, 0.08, 0.06, 0.04],
                                       "n_sim": 1, "b": 20, "kappa_true": 5.0}))
            out = tmp_path / f"out_{name}"
            run_ok(runner, ["simulate", "--config", str(cfg), "--threads", "1", "--out-dir", str(out)])
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["params"]["true_alpha"] == [level] * 6
            ids.append(manifest["run_id"])
        assert ids[0] != ids[1]


    @pytest.mark.parametrize(
        "payload, needle",
        [({"kapa_true": 5}, "kapa_true"), ([1, 2], "JSON object"), ({"true_alpha": 5}, "invalid config value")],
    )
    def test_bad_config_is_typed_error(self, runner, tmp_path, payload, needle):
        cfg = tmp_path / "dgp.json"
        cfg.write_text(json.dumps(payload))
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--threads", "1",
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["kind"] == "Config"
        assert needle in err["error"]["message"]

    def test_infinite_kappa_option_is_config_error(self, runner, tmp_path):
        # the infinite-kappa limit is the poisson scenario, named as such
        result = runner.invoke(main, ["simulate", "--kappa", "inf", "--nsim", "1", "-B", "5", "--threads", "1",
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2 and "Traceback" not in result.output
        err = json.loads(result.output.strip().splitlines()[-1])["error"]
        assert err["kind"] == "Config" and "kappa_true must be positive and finite" in err["message"]

    @pytest.mark.parametrize(
        "payload, needle",
        [
            ({"n_sim": 1.5}, "n_sim must be an integer"),
            ({"b": 2.5}, "b must be an integer"),
            ({"dimension": 10.0}, "dimension must be an integer"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": -1}, "seed must be at least 0"),
            ({"inflation_rate": "x"}, "inflation_rate must be a real number"),
            ({"scenario": "poisson", "kappa_true": "x"}, "kappa_true must be a real number"),
            ({"true_alpha": [1000] + [7] * 9}, "expected counts must be finite"),
            ({"scenario": "calendar", "inflation_rate": 1e10}, "expected counts must be finite"),
            ({"kappa_true": math.inf}, "kappa_true must be positive and finite"),
            ({"scenario": "varying-kappa", "kappa_by_dy": [math.inf] + [3.0] * 9},
             "kappa_by_dy entries must be positive and finite"),
        ],
        ids=["n_sim", "b", "dimension", "seed", "negative-seed", "rate", "kappa", "alpha-overflow", "rate-overflow",
             "kappa-inf", "kappa-by-dy-inf"],
    )
    def test_config_types_are_typed_errors(self, runner, tmp_path, payload, needle):
        cfg = tmp_path / "dgp.json"
        cfg.write_text(json.dumps({"n_sim": 1, "b": 5, **payload}))
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--threads", "1",
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2 and "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["kind"] == "Config" and needle in err["message"]


class TestDiagnose:
    def test_outputs(self, runner, triangle_csv, tmp_path):
        out = str(tmp_path / "out")
        result = run_ok(runner, ["diagnose", triangle_csv, "--out-dir", out])
        assert "28 cells" in result.output
        assert (Path(out) / "residuals.csv").exists()
        assert (Path(out) / "profile.csv").exists()

    def test_profile_csv_has_grid_and_markers(self, runner, triangle_csv, tmp_path):
        out = str(tmp_path / "out")
        run_ok(runner, ["diagnose", triangle_csv, "--out-dir", out])
        lines = (Path(out) / "profile.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# run_id:")
        assert lines[1] == "kappa,loglik,marker"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) >= 60
        markers = {m for row in rows for m in row[2].split(";") if m}
        assert markers == {"mle", "ci_lower", "ci_upper"}


class TestErrors:
    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["fit", str(tmp_path / "nope.csv")])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["kind"] == "FileNotFound"

    # an operating-system error on the input or the output directory is one
    # typed line with exit 2, named after its exception
    def test_directory_as_input(self, runner, tmp_path):
        result = runner.invoke(main, ["fit", str(tmp_path)])
        assert result.exit_code == 2 and "Traceback" not in result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["kind"] == "IsADirectory"

    def test_out_dir_is_a_file(self, runner, triangle_csv, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        result = runner.invoke(main, ["fit", triangle_csv, "--out-dir", str(taken)])
        assert result.exit_code == 2 and "Traceback" not in result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["kind"] == "FileExists"

    @pytest.mark.parametrize("level", ["1.5", "0", "-0.2", "nan"])
    def test_bad_level_fails_before_bootstrap(self, runner, triangle_csv, tmp_path, monkeypatch, level):
        def no_bootstrap(*args, **kwargs):
            raise AssertionError("the bootstrap ran for an invalid level")

        monkeypatch.setattr(nbreserve.predictive, "bootstrap", no_bootstrap)
        out = tmp_path / "out"
        result = runner.invoke(main, ["reserve", triangle_csv, "-B", "2000", "--level", level, "--out-dir", str(out)])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == {
            "kind": "Usage", "message": f"Invalid value for '--level': {float(level)} is not in the range 0<x<1."
        }
        assert not out.exists()

    def test_bad_triangle(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n4,5,\n")
        result = runner.invoke(main, ["fit", str(bad)])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["kind"] == "RaggedRows"

    def test_amounts_guidance(self, runner, tmp_path):
        amounts = tmp_path / "amounts.csv"
        amounts.write_text("10.5,3.2\n7.1,\n")
        result = runner.invoke(main, ["fit", str(amounts)])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["kind"] == "NonIntegerCount"
        assert "round_amounts" in err["error"]["message"]

    # [[5e18, 5e18, 1], [5e18, 1], [1]] used to wrap int64 in the cumulated
    # counts (fit printed a chain-ladder total of -1.3 and exited 0); a
    # 1e300 cell used to raise a raw OverflowError
    @pytest.mark.parametrize("command", ["fit", "reserve", "diagnose"])
    @pytest.mark.parametrize(
        "text", ["5e18,5e18,1\n5e18,1,\n1,,\n", "1e300,3\n4,\n"], ids=["int64-wrap", "float-overflow"]
    )
    def test_count_too_large(self, runner, tmp_path, command, text):
        path = tmp_path / "big.csv"
        path.write_text(text)
        extra = ["-B", "20", "--threads", "1"] if command == "reserve" else []
        result = runner.invoke(main, [command, str(path), "--out-dir", str(tmp_path / "out"), *extra])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["kind"] == "CountTooLarge"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, extra",
        [("fit", []), ("fit", ["--family", "odp"]), ("reserve", ["-B", "20", "--threads", "1"]), ("diagnose", [])],
        ids=["fit", "fit-odp", "reserve", "diagnose"],
    )
    def test_two_by_two_has_no_residual_dof(self, runner, tmp_path, command, extra):
        path = tmp_path / "small.csv"
        path.write_text("5,3\n4,\n")
        result = runner.invoke(main, [command, str(path), "--out-dir", str(tmp_path / "out"), *extra])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["kind"] == "NoResidualDof"
        assert "no residual degrees of freedom" in err["error"]["message"]

    # an all-zero year is an input problem, whichever command meets it:
    # the levels are checked on load, before the chain-ladder or any fit
    @pytest.mark.parametrize(
        "command, extra",
        [("fit", []), ("reserve", ["-B", "20", "--threads", "1"]), ("diagnose", [])],
        ids=["fit", "reserve", "diagnose"],
    )
    @pytest.mark.parametrize("text", ["0,855,744\n0,1133,\n0,,\n", "0,0\n0,\n"], ids=["3x3", "2x2"])
    def test_all_zero_year_is_input_error(self, runner, tmp_path, command, extra, text):
        path = tmp_path / "zero.csv"
        path.write_text(text)
        result = runner.invoke(main, [command, str(path), "--out-dir", str(tmp_path / "out"), *extra])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])["error"]
        assert err["kind"] == "Separation"
        assert "all-zero counts" in err["message"]
        assert not (tmp_path / "out").exists()

    # accident year 1's only nonzero count is the lone cell of development
    # year 4, so that year's coefficient can drift without bound; whatever
    # the failure is called, it is one typed line with its documented code.
    # some of reserve's replicate refits reach future means above 1e19, which
    # numpy's Poisson sampler refuses; those replicates count as failed refits
    @pytest.mark.parametrize(
        "command, extra",
        [("fit", []), ("diagnose", []), ("reserve", ["-B", "100", "--threads", "1"])],
        ids=["fit", "diagnose", "reserve"],
    )
    def test_quasi_separated_triangle_fails_typed(self, runner, tmp_path, command, extra):
        path = tmp_path / "quasi.csv"
        path.write_text("0,0,0,0,1\n2,0,4,5,\n3,0,1,,\n3,3,,,\n1,,,,\n")
        result = runner.invoke(main, [command, str(path), "--out-dir", str(tmp_path / "out"), *extra])
        assert isinstance(result.exception, SystemExit) and "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        cls = getattr(errors, err["kind"] + "Error")
        assert issubclass(cls, errors.ReservingError) and err["message"]
        assert result.exit_code == (2 if issubclass(cls, (errors.TriangleError, errors.ConfigError)) else 1)

    def test_version(self, runner):
        result = run_ok(runner, ["--version"])
        assert "nbreserve" in result.output

    # a bad or missing argument or option is one typed line, like any input
    # error, rather than click's usage text
    @pytest.mark.parametrize(
        "args, needle",
        [
            (["reserve", "TRIANGLE", "-B", "abc"], "'abc' is not a valid integer"),
            (["fit", "TRIANGLE", "--family", "foo"], "'foo' is not one of"),
            (["reserve"], "Missing argument 'TRIANGLE'"),
            (["fit", "TRIANGLE", "--bogus"], "No such option"),
            (["--bogus"], "No such option"),
            (["frob"], "No such command"),
            (["reserve", "TRIANGLE", "--threads", "0"], "--threads"),
            (["simulate", "--threads", "-1"], "--threads"),
            (["fit", "TRIANGLE", "--seed", "-1"], "--seed"),
            (["reserve", "TRIANGLE", "-B", "0"], "--bootstrap"),
            (["reserve", "TRIANGLE", "--level", "1.5"], "--level"),
            (["simulate", "--nsim", "0"], "--nsim"),
            (["simulate", "-B", "0"], "--bootstrap"),
        ],
        ids=["bad-int", "bad-choice", "missing-argument", "unknown-option", "unknown-group-option",
             "unknown-command", "zero-threads", "negative-threads", "negative-seed", "zero-bootstrap",
             "level-above-one", "zero-nsim", "zero-simulate-bootstrap"],
    )
    def test_usage_errors_are_typed(self, runner, triangle_csv, tmp_path, args, needle):
        args = [triangle_csv if a == "TRIANGLE" else a for a in args]
        result = runner.invoke(main, [*args, "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2 and "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["kind"] == "Usage" and needle in err["message"]
        assert not (tmp_path / "out").exists()

    def test_negative_seed_from_environment(self, runner, triangle_csv):
        result = runner.invoke(main, ["fit", triangle_csv], env={"NBRESERVE_SEED": "-3"})
        assert result.exit_code == 2
        assert json.loads(result.output.strip())["error"]["kind"] == "Usage"

    @pytest.mark.parametrize("args", [["--help"], ["reserve", "--help"]])
    def test_help_is_unchanged(self, runner, args):
        result = run_ok(runner, args)
        assert result.output.startswith("Usage:")
