"""Command line interface.

Subcommands: ``fit`` (model estimates and dispersion report),
``reserve`` (bootstrap predictive distribution), ``simulate``
(coverage study), ``diagnose`` (residual and profile exports).

Every run is deterministic given the input file, flags, and seed. The
default seed comes from the ``NBRESERVE_SEED`` environment variable
(falling back to 0) and is always overridden by ``--seed``. Each run
writes a ``manifest.json`` into the output directory and stamps every
output file with the run id so results can be traced back to the exact
invocation. Exit codes: 0 on success, 1 on model or numerical failure,
2 on input or usage errors, each reported as one line of JSON on stderr.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path
from typing import List, Optional

import click
import numpy as np

from . import __version__, _bootstrap, dispersion, predictive, simulation
from .chainladder import chain_ladder
from .diagnostics import export_profile, pearson_residuals, residuals_csv
from .errors import BaseFitFailedError, ConfigError, ReservingError, TriangleError
from .glm import _CONDITION_WARN, ConditioningWarning, Family, fit as glm_fit
from .triangle import read_triangle, to_long, triangle_cells

_SEED_ENV = "NBRESERVE_SEED"


def _fail(kind: str, message: str, code: int) -> None:
    payload = {"error": {"kind": kind, "message": message}}
    click.echo(json.dumps(payload), err=True)
    sys.exit(code)


def _guarded(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            with warnings.catch_warnings():
                # a command prints its own warning line for a poorly conditioned fit
                warnings.simplefilter("ignore", ConditioningWarning)
                return func(*args, **kwargs)
        except OSError as exc:  # kind FileNotFound, IsADirectory, FileExists, ...
            _fail(type(exc).__name__.removesuffix("Error"), str(exc), 2)
        except (TriangleError, ConfigError) as exc:
            _fail(exc.kind, str(exc), 2)
        except ValueError as exc:
            _fail("InvalidValue", str(exc), 2)
        except ReservingError as exc:
            if isinstance(exc, BaseFitFailedError) and isinstance(exc.__cause__, TriangleError):
                _fail(exc.__cause__.kind, str(exc.__cause__), 2)  # the input problem a bootstrap's base fit met
            _fail(exc.kind, str(exc), 1)

    return wrapper


def _usage_as_json(call, *args):
    """``call(*args)``, with a click usage error (a bad or missing argument or option) as a typed error."""
    try:
        return call(*args)
    except click.exceptions.NoArgsIsHelpError:  # a bare ``nbreserve`` prints the help
        raise
    except click.UsageError as exc:
        _fail("Usage", exc.format_message(), 2)


class _Main(click.Group):
    """The command group; it parses its own options in ``parse_args`` and its commands' in ``invoke``."""

    def parse_args(self, ctx, args):
        return _usage_as_json(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return _usage_as_json(super().invoke, ctx)


class _Run:
    """Collects outputs for one invocation and writes the manifest."""

    def __init__(self, subcommand: str, params: dict, out_dir: str):
        self.subcommand = subcommand
        self.params = params
        self.out_dir = Path(out_dir)
        self.started = time.time()
        self.outputs: List[str] = []
        self.workers: Optional[int] = None  # worker processes used, recorded outside params and the run id
        canon = json.dumps({"subcommand": subcommand, **params}, sort_keys=True, default=str)
        self.run_id = hashlib.sha256(canon.encode()).hexdigest()[:12]

    def write_text(self, name: str, text: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        path.write_text(f"# run_id: {self.run_id}\n" + text, encoding="utf-8")
        self.outputs.append(name)
        return path

    def write_json(self, name: str, payload: dict) -> Path:
        path = self._dump(name, {"run_id": self.run_id, **payload})
        self.outputs.append(name)
        return path

    def _dump(self, name: str, payload: dict) -> Path:
        """Write ``payload`` as strict JSON: NaN and the infinities, which JSON lacks, become null."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        plain = json.loads(json.dumps(payload, default=str), parse_constant=lambda _: None)
        path.write_text(json.dumps(plain, indent=2, allow_nan=False) + "\n", encoding="utf-8")
        return path

    def finish(self) -> None:
        manifest = {
            "run_id": self.run_id,
            "subcommand": self.subcommand,
            "params": self.params,
            "tool": "nbreserve",
            "version": __version__,
            "wall_time_s": round(time.time() - self.started, 3),
            "outputs": self.outputs,
        }
        if self.workers is not None:
            manifest["workers"] = self.workers
        self._dump("manifest.json", manifest)
        click.echo(f"outputs written to {self.out_dir} (run_id {self.run_id})")


def _input(path: str) -> dict:
    """Run parameters naming an input file: its path and the SHA-256 of its bytes.

    The digest makes the run id depend on the data, not only on where it
    was read from.
    """
    return {"input": path, "input_sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}


def _load_triangle(path: str, round_amounts: bool):
    # its own function so that bench/spans.py can time the read (cli.load_s);
    # each command's first fit decides whether the triangle can be fitted
    return read_triangle(path, round_amounts=round_amounts)


def _conditioning_lines(model) -> List[str]:
    """The ``warning:`` line a poorly conditioned fit prints, or none."""
    return ["warning: weighted information is poorly conditioned"] if model.condition_number > _CONDITION_WARN else []


def _seed_option(func):
    return click.option(
        "--seed",
        type=click.IntRange(min=0),
        envvar=_SEED_ENV,
        default=0,
        show_default=True,
        help=f"RNG seed; defaults to ${_SEED_ENV} when set.",
    )(func)


def _no_nan(ctx, param, values):
    """Reject a nan ``--level``, which click's open range passes: it compares false with both bounds."""
    for value in values:
        if value != value:
            raise click.BadParameter(f"{value} is not in the range 0<x<1.", ctx, param)
    return values


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="nbreserve")
def main():
    """Claims reserving for count triangles with negative binomial models."""


@main.command("fit")
@click.argument("triangle", type=str)
@click.option(
    "--family",
    type=click.Choice(["nb", "poisson", "odp"]),
    default="nb",
    show_default=True,
    help="nb profiles the dispersion; odp is quasi-Poisson.",
)
@click.option("--round-amounts", is_flag=True, help="Round monetary amounts to integer counts.")
@click.option("--out-dir", type=str, default="nbreserve_out", show_default=True)
@_seed_option
@_guarded
def cmd_fit(triangle: str, family: str, round_amounts: bool, out_dir: str, seed: int):
    """Fit the chain-ladder count model and report parameter estimates."""
    t = _load_triangle(triangle, round_amounts)
    run = _Run("fit", {**_input(triangle), "family": family, "seed": seed}, out_dir)
    records = to_long(t)

    if family == "nb":
        est = dispersion.profile_kappa(records)
        report = dispersion.overdispersion_test(records)
        model = glm_fit(records, Family.negbin(est.kappa_mle))
        future = _future_sum(model)
        payload = {
            "family": "negbin",
            "kappa_mle": est.kappa_mle,
            "kappa_adj": est.kappa_adj,
            "kappa_ci95": list(est.ci95),
            "at_boundary": est.at_boundary,
            "loglik_nb": report.loglik_nb,
            "loglik_poisson": report.loglik_poisson,
            "lambda": report.statistic,
            "p_value": report.p_value,
            "aic_nb": report.aic_nb,
            "aic_poisson": report.aic_poisson,
            "bic_nb": report.bic_nb,
            "bic_poisson": report.bic_poisson,
        }
        lines = [
            f"family               negative binomial (kappa profiled)",
            f"kappa_mle            {est.kappa_mle:.4g}" + ("  [at search boundary]" if est.at_boundary else ""),
            f"kappa 95% CI         [{est.ci95[0]:.4g}, {est.ci95[1]:.4g}]",
            f"kappa_adj            {est.kappa_adj:.4g}",
            f"LRT vs Poisson       {report.statistic:.1f} (p = {report.p_value:.3g})",
            f"AIC (NB / Poisson)   {report.aic_nb:.1f} / {report.aic_poisson:.1f}",
        ]
    else:
        fam = Family.poisson() if family == "poisson" else Family.quasi_poisson()
        model = glm_fit(records, fam)
        future = _future_sum(model)
        payload = {
            "family": model.family.tag,
            "loglik": model.loglik,
            "deviance": model.deviance,
        }
        lines = [f"family               {model.family.tag}"]
        if family == "odp":
            payload["phi"] = model.phi
            lines.append(f"phi (Pearson)        {model.phi:.4g}")

    cl = chain_ladder(t)  # after the fits, which refuse every triangle it cannot take
    payload.update(
        {
            "expected_ultimates": np.exp(model.simplex_alpha).tolist(),
            "dev_weights": model.dev_weights.tolist(),
            "future_sum": future,
            "cl_total_reserve": cl.total_reserve,
            "condition_number": model.condition_number,
            "n_obs": model.n_obs,
            "n_params": model.n_params,
        }
    )
    lines += [
        f"future sum           {future:.1f}",
        f"chain-ladder total   {cl.total_reserve:.1f}",
        f"condition number     {model.condition_number:.3g}",
    ] + _conditioning_lines(model)
    click.echo("\n".join(lines))
    run.write_json("fit.json", payload)
    run.finish()


def _future_sum(model) -> float:
    # summed left to right: np.sum's pairwise order would move the last digits
    _, (ay, dy) = triangle_cells(model.n_ay)
    return sum(np.exp(model.simplex_alpha[ay] + model.simplex_beta[dy]).tolist())


@main.command("reserve")
@click.argument("triangle", type=str)
@click.option(
    "-B", "--bootstrap", "b", type=click.IntRange(min=predictive._MIN_DRAWS), default=5000, show_default=True,
    help="Bootstrap replicates.",
)
@click.option(
    "--level", "levels", type=click.FloatRange(0, 1, min_open=True, max_open=True), callback=_no_nan,
    multiple=True, default=(0.95,), show_default=True,
)
@click.option("--no-correct", is_flag=True, help="Skip the dispersion bias correction.")
@click.option("--threads", type=click.IntRange(min=1), help="Worker processes; at most the usable cores, the default.")
@click.option("--round-amounts", is_flag=True)
@click.option("--out-dir", type=str, default="nbreserve_out", show_default=True)
@_seed_option
@_guarded
def cmd_reserve(triangle, b, levels, no_correct, threads, round_amounts, out_dir, seed):
    """Bootstrap the predictive reserve distribution."""
    levels = predictive._level_set(levels)
    t = _load_triangle(triangle, round_amounts)
    workers = _bootstrap._pool_size(threads, b)
    run = _Run(
        "reserve",
        {**_input(triangle), "b": b, "levels": levels, "correct": not no_correct, "seed": seed},
        out_dir,
    )
    run.workers = workers
    dist = predictive.bootstrap(t, b=b, correct=not no_correct, seed=seed, workers=workers)
    rows_by_level = predictive.summary_rows(dist, levels)

    label = dist.origin_label if isinstance(dist.origin_label, int) else 1
    table = ["accident_year  point      lower      upper      cv_percent"]
    csv_lines = ["ay,level,point,lower,upper,cv_percent"]
    names = [str(label + i - 1) for i in sorted(dist.draws_by_ay)] + ["total"]
    for level, rows in zip(levels, rows_by_level):
        for name, row in zip(names, rows):
            csv_lines.append(f"{name},{level:g},{row.point:.2f},{row.lower:.2f},{row.upper:.2f},{row.cv_percent:.2f}")
            if level == levels[-1]:
                table.append(f"{name:<14} {row.point:<10.0f} {row.lower:<10.0f} {row.upper:<10.0f} {row.cv_percent:.1f}")
    table.append(
        f"kappa_mle {dist.kappa_mle:.4g}; kappa_adj {dist.kappa_adj:.4g}; "
        f"b_effective {dist.b_effective}; refit failures {dist.refit_failures}"
    )
    click.echo("\n".join(table))

    run.write_json("reserve.json", predictive._summary_payload(dist, [rows[-1] for rows in rows_by_level]))
    run.write_text("reserve.csv", "\n".join(csv_lines) + "\n")
    run.write_text("draws.csv", predictive.draws_csv(dist))
    run.finish()


@main.command("simulate")
@click.option("--scenario", type=click.Choice(list(simulation.SCENARIOS)), default="correct", show_default=True)
@click.option("--kappa", type=float, default=10.0, show_default=True, help="True dispersion for NB scenarios.")
@click.option("--nsim", type=click.IntRange(min=1), default=50, show_default=True, help="Simulation replicates.")
@click.option(
    "-B", "--bootstrap", "b", type=click.IntRange(min=1), default=200, show_default=True,
    help="Bootstrap replicates per fit.",
)
@click.option("--threads", type=click.IntRange(min=1), help="Worker processes; at most the usable cores, the default.")
@click.option("--config", "config_path", type=str, default=None, help="JSON file overriding the default DGP.")
@click.option("--out-dir", type=str, default="nbreserve_out", show_default=True)
@_seed_option
@_guarded
def cmd_simulate(scenario, kappa, nsim, b, threads, config_path, out_dir, seed):
    """Run a frequentist coverage study against a known process."""
    overrides = {"scenario": scenario, "kappa_true": kappa, "n_sim": nsim, "b": b, "seed": seed}
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError(f"config must be a JSON object, got {type(loaded).__name__}")
        overrides.update(loaded)
    config = simulation.default_config(**overrides)
    workers = _bootstrap._pool_size(threads, config.n_sim)
    # every resolved setting enters the run id, config-file keys included
    run = _Run("simulate", dataclasses.asdict(config), out_dir)
    run.workers = workers
    result = simulation.run_study(config, workers=workers)
    csv_text = simulation.study_csv(result)
    click.echo(csv_text.rstrip("\n"))
    run.write_text("study.csv", csv_text)
    run.write_json("study.json", simulation.study_json(result))
    run.finish()


@main.command("diagnose")
@click.argument("triangle", type=str)
@click.option("--round-amounts", is_flag=True)
@click.option("--out-dir", type=str, default="nbreserve_out", show_default=True)
@_seed_option
@_guarded
def cmd_diagnose(triangle, round_amounts, out_dir, seed):
    """Export Pearson residuals and the dispersion profile curve."""
    t = _load_triangle(triangle, round_amounts)
    run = _Run("diagnose", {**_input(triangle), "seed": seed}, out_dir)
    records = to_long(t)
    est = dispersion.profile_kappa(records, grid_size=dispersion._GRID_SIZE)
    model = glm_fit(records, Family.negbin(est.kappa_mle))
    rs = pearson_residuals(model)
    run.write_text("residuals.csv", residuals_csv(rs))
    run.write_text("profile.csv", export_profile(est))
    lines = [
        f"{len(rs)} cells; kappa_mle {est.kappa_mle:.4g} "
        f"(95% CI [{est.ci95[0]:.4g}, {est.ci95[1]:.4g}]); "
        f"max |pearson| {np.max(np.abs(rs.pearson)):.2f}"
    ] + _conditioning_lines(model)
    click.echo("\n".join(lines))
    run.finish()


if __name__ == "__main__":
    main()
