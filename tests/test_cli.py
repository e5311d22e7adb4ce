import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import nbreserve
from nbreserve import Family, RunOffTriangle, errors, fit, serialize_triangle, simulation, to_long
from nbreserve.cli import _future_sum, main
from nbreserve.glm import ConditioningWarning
from conftest import QUASI_SEPARATED


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


def triangle_text(rows) -> str:
    """CSV text of a triangle given by its rows, each padded with empty cells to the full width."""
    return "".join(",".join(map(str, row)) + "," * (len(rows) - len(row)) + "\n" for row in rows)


# kinds whose exit code is 2: the input's problems
_INPUT_KINDS = {
    cls.__name__.removesuffix("Error")
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.TriangleError)
}


def _three_commands(path, tmp, flags=()):
    """(exit code, (kind, message) or None) of ``fit``, ``reserve -B 100 --threads 1`` and ``diagnose`` on ``path``.

    Each run succeeds or prints one JSON error line, never a traceback,
    with exit code 2 for an input problem and 1 for a numerical failure;
    when one command exits 2, all three give the same kind and message.
    """
    outcomes = []
    for command, *extra in (["fit"], ["reserve", "-B", "100", "--threads", "1"], ["diagnose"]):
        args = [command, str(path), "--out-dir", str(tmp / command), *extra, *flags]
        result = CliRunner().invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit), result.output
        if result.exit_code == 0:
            outcomes.append((0, None))
            continue
        lines = result.output.strip().splitlines()
        assert result.exit_code in (1, 2) and len(lines) == 1, result.output
        err = json.loads(lines[0])["error"]
        assert (result.exit_code == 2) == (err["kind"] in _INPUT_KINDS), result.output
        outcomes.append((result.exit_code, (err["kind"], err["message"])))
    if any(code == 2 for code, _ in outcomes):
        assert len(set(outcomes)) == 1, outcomes
    return outcomes


# one defect in otherwise valid CSV text, and the error kind it gets;
# None: the text holds a triangle, which may still fail to fit
_TEXT_FAULTS = {
    "none": None,
    "non-number": "NonIntegerCount",
    "empty observed cell": "MissingCell",
    "filled future cell": "FutureCell",
    "ragged row": "RaggedRows",
    "negative count": "NegativeCount",
    "fractional count": "NonIntegerCount",
    "fractional count, rounded": None,
    "count of 2**53": "CountTooLarge",
}


@st.composite
def csv_texts(draw, fault: str):
    """(text, flags, kind): CSV text of a small Poisson triangle, with text-level variations and the ``fault``.

    The variations are a byte-order mark, CRLF line ends, blank lines, a
    header or none, quoted fields and stray spaces. ``flags`` are extra
    command-line flags, and ``kind`` is the fault's error kind
    (``_TEXT_FAULTS``).
    """
    # the fault keys the stream too, so that each fault meets its own triangles
    rng = np.random.default_rng([draw(st.integers(0, 2**32 - 1)), sorted(_TEXT_FAULTS).index(fault)])
    dimension = draw(st.integers(2, 5))
    # from the seed, so that a few examples mix every variation
    bom, crlf, blank, header, quoted, spaced = rng.random(6) < 0.5

    mean = np.exp(rng.uniform(1.0, 5.0, size=(dimension, 1)) + rng.uniform(-1.0, 1.0, size=dimension))
    rows = [[str(c) if j < dimension - i else "" for j, c in enumerate(row)]
            for i, row in enumerate(rng.poisson(mean).tolist())]
    # an observed cell of a row with at least two, so that no row turns blank
    i = int(rng.integers(dimension - 1))
    j = int(rng.integers(dimension - i))
    if fault == "non-number":
        rows[i][j] = "n/a"
    elif fault == "empty observed cell":
        rows[i][j] = ""
    elif fault == "filled future cell":
        rows[i + 1][-1] = "3"
    elif fault == "ragged row":
        rows[int(rng.integers(dimension))].pop()
    elif fault == "negative count":
        rows[i][j] = f"-{int(rows[i][j]) + 1}"
    elif fault.startswith("fractional count"):
        rows[i][j] += ".5"
    elif fault == "count of 2**53":
        rows[i][j] = str(2**53)
    if header:
        rows = [["ay"] + [f"dy{k}" for k in range(dimension)]] + [[str(2001 + k)] + row for k, row in enumerate(rows)]
    if spaced:
        rows = [[f" {field}  " for field in row] for row in rows]
    if quoted:
        rows = [[f'"{field}"' for field in row] for row in rows]
    lines = [",".join(row) for row in rows]
    if blank:
        lines.insert(int(rng.integers(len(lines) + 1)), "," * dimension if rng.random() < 0.5 else "")
    end = "\r\n" if crlf else "\n"
    text = ("\ufeff" if bom else "") + end.join(lines) + end
    return text, ["--round-amounts"] if fault.endswith("rounded") else [], _TEXT_FAULTS[fault]


# any JSON value: null, bools, ints, floats (NaN and the infinities too), strings, lists and objects
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def config_texts(draw):
    """Text of a ``simulate --config`` file: mostly a JSON object over ``DgpConfig``'s keys.

    An object is drawn at a dimension of 2-5. Each key is left out or holds,
    at random, a value it takes, any JSON value (``_JSON_VALUES``) or, for
    the three sequences, a list of one entry too few or too many; some
    objects carry an unknown key. Integers for ``n_sim`` and ``b`` are at
    most 5, since a larger one is only a longer run. The rest of the texts
    are JSON values that are not objects, and objects cut short.
    """
    dimension = draw(st.integers(2, 5))
    positive = st.floats(0.5, 100.0)

    def entries(n, values):
        return draw(st.lists(values, min_size=n, max_size=n))

    weights = entries(dimension + 1, st.floats(0.05, 1.0))
    takes = {
        "dimension": lambda n: n,
        "true_alpha": lambda n: entries(n, st.floats(0.0, 7.0)),
        "true_dev_weights": lambda n: [w / sum(weights[:n]) for w in weights[:n]],
        "kappa_true": lambda n: draw(positive),
        "scenario": lambda n: draw(st.sampled_from(simulation.SCENARIOS)),
        "inflation_rate": lambda n: draw(st.floats(-0.5, 0.5)),
        "kappa_by_dy": lambda n: entries(n, positive),
        "n_sim": lambda n: 1,
        "b": lambda n: draw(st.integers(1, 5)),
        "seed": lambda n: draw(st.integers(0, 2**32 - 1)),
    }
    config = {}
    for key, take in takes.items():
        how = draw(st.sampled_from(["takes"] * 12 + ["absent", "any", "length"]))
        if how == "takes" or (how == "length" and key not in ("true_alpha", "true_dev_weights", "kappa_by_dy")):
            config[key] = take(dimension)
        elif how == "length":
            config[key] = take(dimension + draw(st.sampled_from([-1, 1])))
        elif how == "any":
            junk = st.integers(-3, 5) | _JSON_VALUES.map(lambda v: -abs(v) if type(v) is int else v)
            config[key] = draw(junk if key in ("n_sim", "b") else _JSON_VALUES)
    if draw(st.sampled_from([False] * 9 + [True])):
        config[draw(st.text(min_size=1, max_size=6))] = draw(_JSON_VALUES)
    form = draw(st.sampled_from(["object"] * 8 + ["not an object", "cut short"]))
    if form == "not an object":
        return json.dumps(draw(_JSON_SCALARS | st.lists(_JSON_VALUES)))
    text = json.dumps(config)
    return text if form == "object" else text[: draw(st.integers(0, len(text) - 1))]


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
        assert "stream" not in manifest and "workers" not in manifest  # fit draws nothing
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

    def test_byte_order_mark_is_read(self, runner, australian, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark: the
        # fit is the plain file's, and only the run id, which hashes the bytes, differs
        path, texts = tmp_path / "triangle.csv", []
        for encoding in ("utf-8", "utf-8-sig"):
            path.write_text(serialize_triangle(australian), encoding=encoding)
            out = tmp_path / encoding
            run_ok(runner, ["fit", str(path), "--out-dir", str(out)])
            texts.append((out / "fit.json").read_text().splitlines())
        plain, marked = ([line for line in text if "run_id" not in line] for text in texts)
        assert marked == plain and texts[0] != texts[1]


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

    def test_table_points_add_up(self, runner, triangle_csv, australian, tmp_path):
        # the table's integer points are the chain-ladder's largest-remainder
        # reserves, so the years add up to the total (3191 on these counts)
        from nbreserve import chain_ladder

        args = ["reserve", triangle_csv, "-B", "100", "--threads", "1", "--out-dir", str(tmp_path / "out")]
        table = [line.split() for line in run_ok(runner, args).output.splitlines()[1:australian.dimension + 1]]
        names, points = [row[0] for row in table], [int(row[1]) for row in table]
        assert names == [str(1993 + i) for i in range(1, australian.dimension)] + ["total"]
        cl = chain_ladder(australian)
        assert points[:-1] == cl.rounded_reserves[1:].tolist()
        assert sum(points[:-1]) == points[-1] == cl.rounded_total

    def test_repeated_level_is_one_level(self, runner, triangle_csv, tmp_path):
        # a repeated --level writes what the level given once writes, run id included
        outputs, out = [], tmp_path / "out"
        for levels in (["--level", "0.95"], ["--level", "0.95", "--level", "0.95"]):
            result = run_ok(runner, ["reserve", triangle_csv, "-B", "100", *levels, "--threads", "1",
                                     "--out-dir", str(out)])
            outputs.append((result.output, (out / "reserve.json").read_text(), (out / "reserve.csv").read_text()))
        assert outputs[1] == outputs[0]
        assert len(json.loads(outputs[0][1])["levels"]) == 1
        assert sum(1 for l in outputs[0][2].splitlines() if l.startswith("total,")) == 1

    # (kappa_mle, kappa_adj) as numpy's AVX-512 and its AVX2 kernels give
    # them: they move by about 9e-15 relative between the two, while the
    # draws, and so every other output, are the same bits under both
    # (tests/test_cpu_targets.py re-runs this test under AVX2)
    KAPPAS = {(4.799975929278593, 2.5714156763992464), (4.799975929278638, 2.57141567639927)}

    def test_outputs_pinned(self, runner, triangle_csv, tmp_path):
        # reserve.json and reserve.csv as the per-array summaries wrote them
        # (the run id left out: it hashes the input's path)
        out = tmp_path / "out"
        run_ok(
            runner,
            ["reserve", triangle_csv, "-B", "300", "--level", "0.75", "--level", "0.95", "--level", "0.5",
             "--threads", "1", "--out-dir", str(out)],
        )
        doc = json.loads((out / "reserve.json").read_text())
        doc.pop("run_id")
        assert (doc.pop("kappa_mle"), doc.pop("kappa_adj")) in self.KAPPAS
        assert doc == {
            "point": 3191.036414143154,
            "levels": [
                {"level": 0.5, "lower": 2671.75, "upper": 4452.75},
                {"level": 0.75, "lower": 2096.75, "upper": 5595.5},
                {"level": 0.95, "lower": 1616.9500000000003, "upper": 7863.7249999999985},
            ],
            "cv_percent": 43.70071581413262,
            "b_effective": 300,
            "refit_failures": 0,
        }
        body = "\n".join(l for l in (out / "reserve.csv").read_text().splitlines() if "run_id" not in l)
        assert hashlib.sha256(body.encode()).hexdigest() == "bc36f0ae2d898564b77dc55b1b77152a62b0b6a9eb25052139dcd32a39f94e05"

    def test_one_summary_pass(self, runner, triangle_csv, tmp_path, monkeypatch):
        # the table, reserve.csv and reserve.json come from one summary pass,
        # whose one np.quantile call gives every level's ends
        import numpy as np
        from nbreserve import predictive

        calls = {"rows": 0, "quantile": 0}
        real_rows, real_quantile = predictive.summary_rows, np.quantile

        def rows(*args):
            calls["rows"] += 1
            return real_rows(*args)

        def quantile(*args, **kwargs):
            calls["quantile"] += 1
            return real_quantile(*args, **kwargs)

        monkeypatch.setattr(predictive, "summary_rows", rows)
        monkeypatch.setattr(np, "quantile", quantile)
        run_ok(runner, ["reserve", triangle_csv, "-B", "100", "--level", "0.75", "--level", "0.95",
                        "--threads", "1", "--out-dir", str(tmp_path / "out")])
        assert calls == {"rows": 1, "quantile": 1}

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

    def test_too_few_draws_is_usage_error(self, runner, triangle_csv, tmp_path):
        # fewer replicates than the least the summaries accept can never
        # succeed, so they are refused before any fit
        result = runner.invoke(
            main,
            ["reserve", triangle_csv, "-B", "50", "--threads", "1", "--out-dir", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["kind"] == "Usage" and "--bootstrap" in err["message"] and "100" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_threads_capped_at_usable_cores(self, runner, triangle_csv, tmp_path, monkeypatch, inline_pool):
        # --threads 5000 would otherwise fork 5000 processes at the first submit;
        # B=400 is four blocks of replicates, the fewest a pool is started for
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_ok(runner, ["reserve", triangle_csv, "-B", "400", "--threads", "5000", "--out-dir", a])
        assert inline_pool == [2]
        run_ok(runner, ["reserve", triangle_csv, "-B", "400", "--out-dir", b])
        assert inline_pool == [2, 2]
        assert (Path(a) / "draws.csv").read_text() == (Path(b) / "draws.csv").read_text()

    def test_manifest_records_workers_used(self, runner, triangle_csv, tmp_path, monkeypatch, inline_pool):
        # the capped count is recorded outside params, so the run id does not move
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        manifests = []
        for threads in ("5000", "1"):
            out = tmp_path / threads
            run_ok(runner, ["reserve", triangle_csv, "-B", "400", "--threads", threads, "--out-dir", str(out)])
            manifests.append(json.loads((out / "manifest.json").read_text()))
        assert inline_pool == [2]
        assert [m["workers"] for m in manifests] == [2, 1]
        assert [m["stream"] for m in manifests] == ["philox-block100-v2"] * 2
        assert manifests[0]["run_id"] == manifests[1]["run_id"]
        assert manifests[0]["params"] == manifests[1]["params"] and "workers" not in manifests[0]["params"]


    def test_manifest_records_an_inline_run(self, runner, triangle_csv, tmp_path, monkeypatch, inline_pool):
        # B=300 is three blocks of 100 replicates: it runs in the calling
        # process, whatever the cores, and the manifest names the one worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "out"
        run_ok(runner, ["reserve", triangle_csv, "-B", "300", "--threads", "2", "--out-dir", str(out)])
        assert json.loads((out / "manifest.json").read_text())["workers"] == 1
        assert inline_pool == []

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

    def test_manifest_records_workers_used(self, runner, tmp_path, monkeypatch, inline_pool):
        # the default is every usable core, at most the replicates; the run id does not depend on it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        manifests = []
        for threads in ([], ["--threads", "1"]):
            out = tmp_path / f"out{len(threads)}"
            run_ok(runner, ["simulate", "--scenario", "poisson", "--nsim", "4", "-B", "5", *threads,
                            "--out-dir", str(out)])
            manifests.append(json.loads((out / "manifest.json").read_text()))
        assert inline_pool == [3]
        assert [m["workers"] for m in manifests] == [3, 1]
        assert manifests[0]["run_id"] == manifests[1]["run_id"] and "workers" not in manifests[0]["params"]

    def test_manifest_records_an_inline_run(self, runner, tmp_path, monkeypatch, inline_pool):
        # below four replicates the study runs in the calling process, whatever
        # the cores, and the manifest names the one worker that ran
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "out"
        run_ok(runner, ["simulate", "--nsim", "2", "-B", "20", "--out-dir", str(out)])
        assert json.loads((out / "manifest.json").read_text())["workers"] == 1
        assert inline_pool == []

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "dgp.json"
        cfg.write_text(json.dumps({"dimension": 6, "true_alpha": [6.0] * 6,
                                   "true_dev_weights": [0.5, 0.2, 0.12, 0.08, 0.06, 0.04],
                                   "n_sim": 2, "b": 50, "kappa_true": 5.0}))
        out = str(tmp_path / "out")
        run_ok(runner, ["simulate", "--config", str(cfg), "--threads", "1", "--out-dir", out])
        doc = json.loads((Path(out) / "study.json").read_text())
        assert doc["config"]["dimension"] == 6

    def test_config_with_byte_order_mark(self, runner, tmp_path):
        cfg, out = tmp_path / "dgp.json", tmp_path / "out"
        cfg.write_text(json.dumps({"n_sim": 2}), encoding="utf-8-sig")
        run_ok(runner, ["simulate", "--config", str(cfg), "-B", "20", "--threads", "1", "--out-dir", str(out)])
        assert json.loads((out / "study.json").read_text())["config"]["n_sim"] == 2

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

    @given(text=config_texts())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_any_config_runs_or_is_one_typed_line(self, tmp_path_factory, text):
        # a config file's text, whatever it holds, either runs or is one JSON
        # error line with exit code 2, never a traceback
        tmp = tmp_path_factory.mktemp("config")
        cfg = tmp / "dgp.json"
        cfg.write_text(text, encoding="utf-8")
        args = ["simulate", "--config", str(cfg), "--nsim", "1", "-B", "5", "--threads", "1"]
        result = CliRunner().invoke(main, [*args, "--out-dir", str(tmp / "out")])
        assert result.exception is None or isinstance(result.exception, SystemExit), (text, result.output)
        if result.exit_code != 0:
            lines = result.output.strip().splitlines()
            assert result.exit_code == 2 and len(lines) == 1, (text, result.output)
            assert json.loads(lines[0])["error"]["kind"] in ("Config", "InvalidValue"), (text, result.output)

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
            ({"scenario": "varying-kappa", "kappa_by_dy": [3.0] * 9}, "varying-kappa needs kappa_by_dy"),
            # each entry of the three sequences is a real number; these three
            # used to end in an IndexError traceback or a triangle's error
            ({"true_alpha": {str(i): 1 for i in range(10)}}, "true_alpha must be a real number"),
            ({"true_alpha": "abcdefghij"}, "true_alpha must be a real number"),
            ({"true_alpha": [[1]] * 10}, "true_alpha must be a real number"),
            ({"true_dev_weights": ["0.1"] * 10}, "true_dev_weights must be a real number"),
            # integers past float's range used to end in an OverflowError traceback
            ({"kappa_true": 10**400}, "kappa_true must be a real number within float's range"),
            ({"true_alpha": [10**400] + [7] * 9}, "true_alpha must be a real number within float's range"),
        ],
        ids=["n_sim", "b", "dimension", "seed", "negative-seed", "rate", "kappa", "alpha-overflow", "rate-overflow",
             "kappa-inf", "kappa-by-dy-inf", "kappa-by-dy-short", "alpha-object", "alpha-string", "alpha-nested", "weights-strings",
             "kappa-past-float", "alpha-past-float"],
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

    # a kappa at which an expected count's gamma scale mu / kappa overflows
    # used to print two raw numpy warnings and then numpy's "lam value too
    # large", which names no config key
    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"kappa_true": 5e-324}, "kappa_true"),
            ({"kappa_true": 1e-310}, "kappa_true"),
            ({"scenario": "varying-kappa", "kappa_by_dy": [5e-324] + [3.0] * 9}, "kappa_by_dy"),
        ],
        ids=["smallest-subnormal", "subnormal", "varying-kappa-subnormal"],
    )
    def test_subnormal_kappa_is_one_config_line(self, runner, tmp_path, payload, key):
        cfg = tmp_path / "dgp.json"
        cfg.write_text(json.dumps(payload))
        args = ["simulate", "--config", str(cfg), "--nsim", "1", "-B", "5", "--threads", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [*args, "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2 and not caught
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["kind"] == "Config" and err["message"].startswith(f"{key} is too small")

    def test_tiny_normal_kappa_runs(self, runner, tmp_path):
        cfg = tmp_path / "dgp.json"
        cfg.write_text(json.dumps({"kappa_true": 1e-300}))
        run_ok(runner, ["simulate", "--config", str(cfg), "--nsim", "1", "-B", "5", "--threads", "1",
                        "--out-dir", str(tmp_path / "out")])


# nearly flat profiles (kappa-hat about 1.7e4 and 3.2e5) whose quadratic
# start for the upper interval endpoint lies past exp's range; fit and
# diagnose used to end in an OverflowError traceback
@pytest.mark.parametrize("command", ["fit", "diagnose"])
@pytest.mark.parametrize(
    "text",
    ["33,23,7\n49,12,\n32,,\n", "345,250,247,178,131\n460,329,243,189,\n409,316,196,,\n455,335,,,\n519,,,,\n"],
    ids=["3x3", "5x5"],
)
def test_flat_profile_runs(runner, tmp_path, command, text):
    path = tmp_path / "flat.csv"
    path.write_text(text)
    out = tmp_path / "out"
    result = run_ok(runner, [command, str(path), "--out-dir", str(out)])
    assert "Traceback" not in result.output
    if command == "fit":
        assert _strict_json(out / "fit.json")["kappa_ci95"][1] == 1e8


# the estimate is at the kappa cap, where the weighted information is poorly conditioned
AT_CAP_ROWS = [[0, 4, 1, 2], [2, 0, 3], [405, 11], [18]]


@pytest.mark.parametrize("command", ["fit", "diagnose"])
def test_poor_conditioning_is_one_warning_line(runner, tmp_path, command):
    # the command prints its own warning line on stdout, and no raw Python warning reaches stderr
    path = tmp_path / "at_cap.csv"
    path.write_text(triangle_text(AT_CAP_ROWS))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_ok(runner, [command, str(path), "--out-dir", str(tmp_path / "out")])
    assert result.stderr == ""
    assert result.stdout.splitlines().count("warning: weighted information is poorly conditioned") == 1
    assert not [w for w in caught if issubclass(w.category, ConditioningWarning)]


# near-separated: it fits, but many replicates redraw a singular layout
NEAR_SEPARATED_ROWS = [[0, 0, 10, 1052], [1872, 0, 0], [0, 373], [193]]


def test_failed_refits_are_one_error_line(runner, tmp_path):
    # 379 of the 1000 refits meet singular normal equations; stderr holds
    # the one ExcessiveFailures line and no raw numpy warning
    path = tmp_path / "near.csv"
    path.write_text(triangle_text(NEAR_SEPARATED_ROWS))
    args = ["reserve", str(path), "-B", "1000", "--threads", "1", "--seed", "0", "--out-dir", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert len(result.stderr.splitlines()) == 1
    err = json.loads(result.stderr)["error"]
    assert err["kind"] == "ExcessiveFailures"
    assert err["message"].startswith("379 of 1000 bootstrap refits failed")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


def _strict_json(path: Path):
    """``path`` parsed as JSON proper, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


# a two-year study: odp and nb_corrected, with no residual degrees of
# freedom, complete no replicate, so their bias and rmse are NaN
TWO_YEAR_DGP = {"dimension": 2, "true_alpha": [6.0, 6.0], "true_dev_weights": [0.7, 0.3], "n_sim": 2, "b": 20}


@pytest.mark.parametrize(
    "args, written",
    [
        (["fit", "{csv}"], "fit.json"),
        (["fit", "{csv}", "--family", "odp"], "fit.json"),
        (["reserve", "{csv}", "-B", "100", "--threads", "1"], "reserve.json"),
        (["diagnose", "{csv}"], None),
        (["simulate", "--scenario", "poisson", "--kappa", "inf", "--nsim", "1", "-B", "5", "--threads", "1"],
         "study.json"),
        (["simulate", "--config", "{config}", "--threads", "1"], "study.json"),
    ],
    ids=["fit-nb", "fit-odp", "reserve", "diagnose", "simulate-infinite-kappa", "simulate-two-years"],
)
def test_every_json_output_is_strict(runner, triangle_csv, tmp_path, args, written):
    # a non-finite number is written as null, so any JSON parser reads the files
    config = tmp_path / "dgp.json"
    config.write_text(json.dumps(TWO_YEAR_DGP))
    out = tmp_path / "out"
    run_ok(runner, [a.format(csv=triangle_csv, config=config) for a in args] + ["--out-dir", str(out)])
    names = sorted(p.name for p in out.glob("*.json"))
    assert names == sorted({"manifest.json", written} - {None})
    docs = {name: _strict_json(out / name) for name in names}
    if "--kappa" in args:
        assert docs["manifest.json"]["params"]["kappa_true"] is None
    if "--config" in args:
        by_method = {m["method"]: m for m in docs["study.json"]["methods"]}
        assert by_method["odp"]["n_completed"] == 0 and by_method["odp"]["bias"] is None


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

    # an input that is not UTF-8 text, or a config file that is not JSON,
    # is a ValueError, reported as one InvalidValue line with exit 2
    @pytest.mark.parametrize(
        "args, content, needle",
        [
            (["fit", "PATH"], "1,2\nZürich,\n".encode("latin-1"), "can't decode byte 0xfc"),
            (["reserve", "PATH", "-B", "100", "--threads", "1"], b"1,2\n\xff,\n", "can't decode byte 0xff"),
            (["diagnose", "PATH"], b"1,2\n\xff,\n", "can't decode byte 0xff"),
            (["simulate", "--config", "PATH", "--nsim", "1", "-B", "5", "--threads", "1"], b'{"n_sim": 1,',
             "Expecting property name"),
        ],
        ids=["fit", "reserve", "diagnose", "simulate"],
    )
    def test_unreadable_input_is_invalid_value(self, runner, tmp_path, args, content, needle):
        path = tmp_path / "input"
        path.write_bytes(content)
        args = [str(path) if a == "PATH" else a for a in args]
        result = runner.invoke(main, [*args, "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2 and "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["kind"] == "InvalidValue" and needle in err["message"]

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("5\n", "a triangle needs at least 2 accident years"),
            ("ay,dy0,dy1\n", "no data rows"),
            ("1,2,3\n4,5\n6,,\n", "row 2: expected 3 fields, got 2"),
        ],
        ids=["1x1", "header-only", "short-row"],
    )
    def test_bad_layout(self, runner, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        result = runner.invoke(main, ["fit", str(path), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {"kind": "RaggedRows", "message": message}
        assert not (tmp_path / "out").exists()

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
    # 1e300 cell used to raise a raw OverflowError; legal cells whose
    # accident year's total reaches 2**53 used to fail in the chain-ladder
    # for fit and reserve, and in a profile refit (exit 1) for diagnose
    @pytest.mark.parametrize("command", ["fit", "reserve", "diagnose"])
    @pytest.mark.parametrize(
        "text",
        ["5e18,5e18,1\n5e18,1,\n1,,\n", "1e300,3\n4,\n", "4503599627370496,4503599627370496,1\n1,1,\n1,,\n"],
        ids=["int64-wrap", "float-overflow", "row-total"],
    )
    def test_count_too_large(self, runner, tmp_path, command, text):
        path = tmp_path / "big.csv"
        path.write_text(text)
        extra = ["-B", "100", "--threads", "1"] if command == "reserve" else []
        result = runner.invoke(main, [command, str(path), "--out-dir", str(tmp_path / "out"), *extra])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["kind"] == "CountTooLarge"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, extra",
        [("fit", []), ("fit", ["--family", "odp"]), ("reserve", ["-B", "100", "--threads", "1"]), ("diagnose", [])],
        ids=["fit", "fit-odp", "reserve", "diagnose"],
    )
    def test_two_by_two_has_no_residual_dof(self, runner, tmp_path, command, extra):
        # [[1, 2], [2]] has a Poisson fit with all-zero residuals, which
        # used to give the ODP a phi of 0: n - p decides alone
        for text in ("5,3\n4,\n", "1,2\n2,\n"):
            path = tmp_path / "small.csv"
            path.write_text(text)
            result = runner.invoke(main, [command, str(path), "--out-dir", str(tmp_path / "out"), *extra])
            assert result.exit_code == 2, text
            err = json.loads(result.output.strip().splitlines()[-1])
            assert err["error"]["kind"] == "NoResidualDof"
            assert "no residual degrees of freedom" in err["error"]["message"]

    def test_two_by_two_poisson_fits(self, runner, tmp_path):
        # the Poisson needs no residual degrees of freedom
        for text in ("5,3\n4,\n", "1,2\n2,\n"):
            path = tmp_path / "small.csv"
            path.write_text(text)
            run_ok(runner, ["fit", str(path), "--family", "poisson", "--out-dir", str(tmp_path / "out")])

    # a hole in the records (in a CSV, an empty observed cell), a saturated
    # 2 x 2 triangle and an accident year whose total reaches 2**53 each get
    # one error kind and message from every command, before any output
    @pytest.mark.parametrize(
        "text, kind, message",
        [
            ("5,,3\n4,2,\n1,,\n", "MissingCell", "cell (1, 1): observed cell is empty"),
            ("1,2\n2,\n", "NoResidualDof", "no residual degrees of freedom: 3 observed cells for 3 parameters"),
            (
                "4503599627370496,4503599627370496,1\n1,1,\n1,,\n", "CountTooLarge",
                "accident year 1: total 9007199254740993 is 2**53 or more",
            ),
        ],
        ids=["holed", "two-by-two", "row-total"],
    )
    def test_one_outcome_per_input(self, runner, tmp_path, text, kind, message):
        path, out = tmp_path / "input.csv", tmp_path / "out"
        path.write_text(text)
        commands = [["fit"], ["fit", "--family", "odp"], ["reserve", "-B", "100", "--threads", "1"], ["diagnose"]]
        for command, *extra in commands:
            result = runner.invoke(main, [command, str(path), "--out-dir", str(out), *extra])
            assert result.exit_code == 2, (command, extra)
            lines = result.output.strip().splitlines()
            assert len(lines) == 1
            err = json.loads(lines[0])["error"]
            assert (err["kind"], err["message"]) == (kind, message), (command, extra)
        assert not out.exists()

    # an all-zero year is an input problem, whichever command meets it:
    # the first fit decides, and the chain-ladder runs after it
    @pytest.mark.parametrize(
        "command, extra",
        [("fit", []), ("reserve", ["-B", "100", "--threads", "1"]), ("diagnose", [])],
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

    # each command's first fit refuses a quasi-separated triangle, as it
    # refuses an all-zero year
    @pytest.mark.parametrize(
        "command, extra",
        [("fit", []), ("diagnose", []), ("reserve", ["-B", "100", "--threads", "1"])],
        ids=["fit", "diagnose", "reserve"],
    )
    def test_quasi_separated_triangle_fails_typed(self, runner, tmp_path, command, extra):
        for name, rows in QUASI_SEPARATED.items():
            path, out = tmp_path / f"{name}.csv", tmp_path / f"out-{name}"
            path.write_text(triangle_text(rows))
            result = runner.invoke(main, [command, str(path), "--out-dir", str(out), *extra])
            assert result.exit_code == 2 and "Traceback" not in result.output, name
            lines = result.output.strip().splitlines()
            assert len(lines) == 1
            err = json.loads(lines[0])["error"]
            assert err["kind"] == "Separation" and "no finite maximum" in err["message"], name
            assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [["fit"], ["fit", "--family", "poisson"], ["reserve", "-B", "100", "--threads", "1"], ["diagnose"]],
        ids=["fit", "fit-poisson", "reserve", "diagnose"],
    )
    def test_one_existence_test_per_run(self, runner, triangle_csv, tmp_path, monkeypatch, args):
        # the first fit decides whether the likelihood has a maximum; loading
        # the triangle does not test it before
        from nbreserve import glm

        original, calls = glm._poisson_fit, []

        def counted(*call_args):
            calls.append(call_args)
            return original(*call_args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "nbreserve" and getattr(module, "_poisson_fit", None) is original:
                monkeypatch.setattr(module, "_poisson_fit", counted)
        monkeypatch.setattr(glm, "_last_joint_fit", ((), None))
        command, *extra = args
        run_ok(runner, [command, triangle_csv, *extra, "--out-dir", str(tmp_path / "out")])
        assert len(calls) == 1

    @given(
        seed=st.integers(0, 2**32 - 1),
        dimension=st.integers(2, 5),
        fault=st.sampled_from(["none"] * 8 + ["year total", "zero divisor"]),
    )
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_commands_agree_on_input_errors(self, tmp_path_factory, seed, dimension, fault):
        # Poisson counts with some cells, rows and columns zeroed: each command
        # succeeds or prints one JSON error line, and an input error (exit 2)
        # is the same kind and message from all three, since each command's
        # first fit decides; the chain-ladder, which runs after it, never
        # meets a zero divisor
        rng = np.random.default_rng(seed)
        mean = np.exp(rng.uniform(1.0, 5.0, size=(dimension, 1)) + rng.uniform(-1.0, 1.0, size=dimension))
        counts = rng.poisson(mean) * (rng.random((dimension, dimension)) > 0.05)
        counts[rng.random(dimension) < 0.05] = 0
        counts[:, rng.random(dimension) < 0.05] = 0
        rows = [row[: dimension - i] for i, row in enumerate(counts.tolist())]
        if fault == "year total":
            rows[0][:2] = [2**52, 2**52 + int(rng.integers(100))]
        elif fault == "zero divisor":  # development year 0's counts in the last year alone
            for row in rows[:-1]:
                row[0] = 0
        tmp = tmp_path_factory.mktemp("agree")
        path = tmp / "input.csv"
        path.write_text(triangle_text(rows))
        outcomes = _three_commands(path, tmp)
        assert outcomes[0][1] is None or outcomes[0][1][0] != "ZeroColumnSum"

    @pytest.mark.parametrize("fault", sorted(_TEXT_FAULTS))
    @given(data=st.data())
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    def test_commands_agree_on_csv_text(self, tmp_path_factory, fault, data):
        # CSV text as spreadsheets and hands write it: layout variations
        # change nothing, and a text fault is the same typed error, exit 2,
        # from all three commands, never a traceback
        text, flags, kind = data.draw(csv_texts(fault))
        tmp = tmp_path_factory.mktemp("text")
        path = tmp / "input.csv"
        path.write_bytes(text.encode("utf-8"))
        outcomes = _three_commands(path, tmp, flags)
        if kind is not None:
            assert {(code, err[0]) for code, err in outcomes} == {(2, kind)}, (text, outcomes)
        else:
            assert not {err[0] for _, err in outcomes if err} & set(_TEXT_FAULTS.values()), (text, outcomes)

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

    def test_bare_command_prints_the_help(self, runner):
        # the boundary hands click's no-arguments help through: usage text, no JSON
        result = runner.invoke(main, [])
        assert result.exit_code == 2 and isinstance(result.exception, (SystemExit, type(None)))
        assert result.stdout == "" and result.stderr == run_ok(runner, ["--help"]).stdout


# Values an option may be given wrongly: text, NaN, out of range, below
# float's range (1e-400 reads as 0), subnormal and past float's range.
_WRONG = ["abc", "", "nan", "inf", "-1", "-7.5", "0", "1.5", "1e-400", "1e-310", "1e400"]
# numbers past any count, which -B and --nsim never take: there they would be a long run
_HUGE = [str(10**30), str(2**64), "1e300"]


def _valued(name, valid, wrong=_WRONG):
    """Tokens of the option ``name``: a value from the strategy ``valid`` or a wrong one."""
    return (valid | st.sampled_from(wrong)).map(lambda value: [name, value])


def _flag(name):
    return st.sampled_from([[name], [f"{name}=1"]])  # a flag given a value is a usage error


# Each command's options. -B and --nsim take valid values small enough that
# no run has four pool units; paths are placeholders for the files of
# `flag_files`: CSV, MISSING, DIR and LATIN1 (not UTF-8), OUT (a new
# directory) and FILE (an existing file), CONFIG and MALFORMED.
_SEED = _valued("--seed", st.integers(0, 2**32).map(str), _WRONG + _HUGE)
_THREADS = _valued("--threads", st.integers(1, 8).map(str), _WRONG + _HUGE)
_OUT_DIR = st.sampled_from([["--out-dir", "OUT"], ["--out-dir", "FILE"], ["--out-dir", "FILE/sub"]])
_ROUND = _flag("--round-amounts")
_COMMAND_OPTIONS = {
    "fit": {
        "--family": _valued("--family", st.sampled_from(["nb", "poisson", "odp"]), ["foo", "NB", ""]),
        "--round-amounts": _ROUND, "--out-dir": _OUT_DIR, "--seed": _SEED,
    },
    "reserve": {
        "-B": _valued("-B", st.integers(100, 300).map(str), _WRONG + ["99"]),
        "--level": _valued("--level", st.floats(0.01, 0.99).map(repr), _WRONG + _HUGE + ["1"]),
        "--no-correct": _flag("--no-correct"), "--threads": _THREADS, "--round-amounts": _ROUND,
        "--out-dir": _OUT_DIR, "--seed": _SEED,
    },
    "simulate": {
        "--scenario": _valued("--scenario", st.sampled_from(simulation.SCENARIOS), ["foo"]),
        "--kappa": _valued("--kappa", st.floats(0.5, 1e6).map(repr), _WRONG + _HUGE),
        "--nsim": _valued("--nsim", st.integers(1, 3).map(str)),
        "-B": _valued("-B", st.integers(1, 300).map(str)),
        "--threads": _THREADS,
        "--config": st.sampled_from(["CONFIG", "MALFORMED", "MISSING", "DIR", "LATIN1", "CSV"]).map(
            lambda path: ["--config", path]),
        "--out-dir": _OUT_DIR, "--seed": _SEED,
    },
    "diagnose": {"--round-amounts": _ROUND, "--out-dir": _OUT_DIR, "--seed": _SEED},
}
# options whose defaults (-B 5000, --nsim 50) would be a long run in a pool
_ALWAYS_GIVEN = {"reserve": ["-B"], "simulate": ["--nsim", "-B"]}
_SHARED_OPTIONS = {"--seed": _SEED, "--threads": _THREADS, "--out-dir": _OUT_DIR, "--round-amounts": _ROUND}
# each command's smallest valid run, to which the shared option's tokens are added
_SMALL_RUNS = {
    "fit": ["fit", "CSV"], "reserve": ["reserve", "CSV", "-B", "100"],
    "simulate": ["simulate", "--nsim", "1", "-B", "5"], "diagnose": ["diagnose", "CSV"],
}


@st.composite
def flag_argvs(draw):
    """An ``nbreserve`` argv: a command and a random subset of its options, some repeated, in any order.

    A value is right or wrong (``_WRONG``); some argvs carry an unknown
    option, and a command that takes ``TRIANGLE`` gets none, one or two.
    """
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    options = _COMMAND_OPTIONS[command]
    names = _ALWAYS_GIVEN.get(command, []) + draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    tokens = [draw(options[name]) for name in names for _ in range(draw(st.sampled_from([1] * 5 + [2])))]
    tokens += draw(st.sampled_from([[]] * 8 + [["--bogus"], ["-Z"]]))
    if command != "simulate":  # the commands that take TRIANGLE
        paths = st.sampled_from(["CSV"] * 5 + ["MISSING", "DIR", "LATIN1"])
        tokens += [[draw(paths)] for _ in range(draw(st.sampled_from([1] * 8 + [0, 2])))]
    order = draw(st.permutations(range(len(tokens))))
    return [command] + [token for i in order for token in tokens[i]]


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory, australian):
    """The paths ``flag_argvs`` names, but OUT, which each run makes in its own directory."""
    tmp = tmp_path_factory.mktemp("flags")
    files = {name: tmp / name.lower() for name in ("CSV", "MISSING", "DIR", "LATIN1", "FILE", "CONFIG", "MALFORMED")}
    files["CSV"].write_text(serialize_triangle(australian), encoding="utf-8")
    files["DIR"].mkdir()
    files["LATIN1"].write_bytes("1,2\nZürich,\n".encode("latin-1"))
    files["FILE"].write_text("")
    files["CONFIG"].write_text(json.dumps({"inflation_rate": 0.1, "n_sim": 2, "b": 10}))
    files["MALFORMED"].write_text('{"n_sim": 1,')
    return {name: str(path) for name, path in files.items()}


def _resolved(token: str, files) -> str:
    """``token`` with a leading placeholder replaced by its path in ``files``; OUT is ``out`` in the run's directory."""
    if token == "OUT":
        return "out"
    head, slash, tail = token.partition("/")
    return files.get(head, head) + slash + tail


def _flag_outcome(argv, files, base):
    """The error kind of ``argv`` run in process in a new directory under ``base``, or None on success.

    A run exits 0 with nothing on stderr, or 1 or 2 with one JSON error
    line; it never raises, warns or starts a process.
    """
    args = [_resolved(token, files) for token in argv]
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=base), warnings.catch_warnings(record=True) as caught, \
            mock.patch("concurrent.futures.ProcessPoolExecutor", side_effect=AssertionError("a pool started")):
        warnings.simplefilter("always")
        result = runner.invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (argv, result.exception)
    assert "Traceback" not in result.output and not caught, (argv, result.output, [str(w.message) for w in caught])
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    if result.exit_code == 0:
        assert result.stderr == "", (argv, result.stderr)
        return None
    lines = result.stderr.splitlines()
    assert len(lines) == 1, (argv, result.stderr)
    err = json.loads(lines[0])["error"]
    assert set(err) == {"kind", "message"} and all(isinstance(v, str) for v in err.values()), (argv, err)
    return err["kind"]


@given(argv=flag_argvs(), shared=st.sampled_from(sorted(_SHARED_OPTIONS)).flatmap(
    lambda name: _SHARED_OPTIONS[name].map(lambda tokens: (name, tokens))))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_any_flags_run_or_are_one_typed_line(tmp_path_factory, flag_files, argv, shared):
    # random flags on every command: a result, or one JSON error line with
    # exit 1 or 2, never a traceback or a raw warning; and a shared option's
    # value, right or wrong, gets the same outcome from every command that
    # takes it
    base = tmp_path_factory.mktemp("argv")
    _flag_outcome(argv, flag_files, base)
    name, tokens = shared
    kinds = {command: _flag_outcome(run + tokens, flag_files, base)
             for command, run in _SMALL_RUNS.items() if name in _COMMAND_OPTIONS[command]}
    assert len(set(kinds.values())) == 1, (tokens, kinds)
