"""Print one SHA-256 per group of outputs, to show that a change keeps every result bit for bit.

Run from the repository root; the package is imported from ``src/`` of
that checkout::

    python3 tools/digest.py

Groups:

- ``fit-batch``: every field of ``chain_ladder``, ``profile_kappa``,
  ``overdispersion_test`` and ``glm.fit`` at kappa-hat, for each triangle
  of the ``fit-batch`` benchmark workload at seeds 0-3
  (``bench/workloads.py``, imported and only read);
- ``bootstrap-au`` and ``bootstrap-ta``: the Australian and Taylor-Ashe
  bootstraps at B=1000, seeds 0-2, one worker, run twice: with the
  remembered joint fit (``nbreserve.glm._last_joint_fit``) cleared before
  every call, and warm, after ``profile_kappa`` on the same triangle;
- ``study-desk``: a desk coverage study with ``n_sim`` 4 and ``b`` 50,
  seeds 0-1, serial;
- ``reserve-cli``: ``nbreserve reserve`` through the in-process click
  ``main`` on the Australian and Taylor-Ashe CSVs, B=300, levels 0.5,
  0.75 and 0.95, seeds 0-1, ``--threads 1``: its ``reserve.json`` and
  ``reserve.csv`` without their ``run_id`` lines (the run id hashes the
  input's path, which is a temporary directory);
- ``kernel-drops``: ``nbreserve._bootstrap.fit_kept_levels`` for the
  ``poisson``, ``quasipoisson`` and ``negbin`` families on seeded
  batches of 40 rows, one per seed 0-399, of overdispersed counts on a
  triangle of dimension 3-10, whose rows drop nothing, accident year 1,
  development year 0, both, or random levels: the masked path of the
  joint kernel, which the bundled triangles' bootstraps never take with
  a baseline dropped;
- ``cli-errors``: ``nbreserve fit``, ``reserve -B 100 --threads 1`` and
  ``diagnose`` through the in-process click ``main`` on 40 seeded CSVs of
  dimension 2-5 with Poisson counts, some cells, rows and columns zeroed,
  in one of ten a first-year total past 2**53 and in another one of ten
  no finite maximum and a zero chain-ladder divisor: each run's exit code
  and JSON error line, and each success's output files without their
  ``run_id`` lines. Most of these triangles are refused, so the group
  shows that every command gives each one the same outcome.

Floats are hashed by their exact ``repr`` and arrays by their bytes, so
two trees print the same digests exactly when every output agrees in
every bit. A raised package error is hashed by its type and message,
and so is each warning a ``fit-batch`` triangle raises. A group whose
runs disagree prints each run's digest after ``runs disagree:``, and
the script then exits with status 1.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import nbreserve as nb  # noqa: E402
import nbreserve._bootstrap  # noqa: E402,F401 (binds nb._bootstrap)
import nbreserve.cli  # noqa: E402,F401 (binds nb.cli)
from workloads import FitBatch  # noqa: E402

FIT_BATCH_SEEDS = (0, 1, 2, 3)
BOOTSTRAP_SEEDS = (0, 1, 2)
BOOTSTRAP_B = 1000
STUDY_SEEDS = (0, 1)
RESERVE_CLI_SEEDS = (0, 1)
KERNEL_DROPS_SEEDS = range(400)
KERNEL_DROPS_ROWS = 40
RESERVE_CLI_ARGS = ("-B", "300", "--level", "0.5", "--level", "0.75", "--level", "0.95", "--threads", "1")
CLI_ERRORS_SEEDS = range(40)
CLI_ERRORS_COMMANDS = {
    "fit": ([], ["fit.json"]),
    "reserve": (["-B", "100", "--threads", "1"], ["reserve.json", "reserve.csv"]),
    "diagnose": ([], ["residuals.csv", "profile.csv"]),
}


def _feed(h, value) -> None:
    """Add ``value`` to the hash ``h`` with its type, recursing into containers and dataclasses."""
    if isinstance(value, np.ndarray):
        h.update(f"ndarray{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            h.update(field.name.encode())
            _feed(h, getattr(value, field.name))
    elif isinstance(value, dict):
        h.update(b"dict")
        for key in sorted(value, key=repr):
            _feed(h, key)
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, BaseException):
        h.update(f"{type(value).__name__}:{value}".encode())
    else:
        h.update(f"{type(value).__name__}:{value!r}".encode())


def _fit_batch(h) -> None:
    for seed in FIT_BATCH_SEEDS:
        workload = FitBatch(nb, seed, 15.0, ROOT)
        workload.prepare()
        for t in workload.triangles:
            records = nb.triangle.to_long(t)
            _feed(h, nb.chainladder.chain_ladder(t))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    est = nb.dispersion.profile_kappa(records)
                    out = (est, nb.dispersion.overdispersion_test(records),
                           nb.glm.fit(records, nb.glm.Family.negbin(est.kappa_mle)))
                except nb.errors.ReservingError as exc:
                    out = exc
            _feed(h, out)
            _feed(h, [f"{w.category.__name__}:{w.message}" for w in caught])


def _bootstrap(h, triangle, warm: bool) -> None:
    """The bootstraps with the remembered joint fit cleared before each call, or ``warm`` after ``profile_kappa``."""
    if warm:
        nb.dispersion.profile_kappa(nb.triangle.to_long(triangle))
    for seed in BOOTSTRAP_SEEDS:
        if not warm:
            nb.glm._last_joint_fit = ((), None)
        _feed(h, nb.predictive.bootstrap(triangle, b=BOOTSTRAP_B, correct=True, seed=seed, workers=1))


def _study(h) -> None:
    for seed in STUDY_SEEDS:
        _feed(h, nb.simulation.run_study(nb.simulation.default_config(n_sim=4, b=50, seed=seed)))


def _run_cli(h, args, out: Path, outputs) -> None:
    """Hash one in-process ``nbreserve`` run: its error line if it fails, and its ``outputs`` without the run id.

    The run id hashes the input's path, which is a temporary directory.
    """
    errors = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(errors):
            nb.cli.main.main([*args, "--out-dir", str(out)], standalone_mode=False)
    except SystemExit as exc:  # a failed run prints one JSON error line
        _feed(h, f"exit {exc.code}: {errors.getvalue()}")
    for output in outputs:
        path = out / output
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        _feed(h, [line for line in text.splitlines() if "run_id" not in line])


def _reserve_cli(h) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, triangle in (("australian", nb.australian_bodily_injury()), ("taylor-ashe", nb.taylor_ashe())):
            csv = Path(tmp) / f"{name}.csv"
            csv.write_text(nb.triangle.serialize_triangle(triangle), encoding="utf-8")
            for seed in RESERVE_CLI_SEEDS:
                args = ["reserve", str(csv), *RESERVE_CLI_ARGS, "--seed", str(seed)]
                _run_cli(h, args, Path(tmp) / f"{name}-{seed}", ("reserve.json", "reserve.csv"))


def _faulty_rows(seed: int) -> list:
    """The rows of a seeded triangle of dimension 2-5 with Poisson counts, some cells, rows and columns zeroed.

    One in ten has a first year whose total is 2**53 or more, and another one in ten no counts in
    development year 0 but the last year's, which leaves no finite maximum.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    mean = np.exp(rng.uniform(1.0, 5.0, size=(dim, 1)) + rng.uniform(-1.0, 1.0, size=dim))
    counts = rng.poisson(mean) * (rng.random((dim, dim)) > 0.05)
    counts[rng.random(dim) < 0.05] = 0
    counts[:, rng.random(dim) < 0.05] = 0
    rows = [row[: dim - i] for i, row in enumerate(counts.tolist())]
    if seed % 10 == 0:  # every cell a legal count, the year's total not
        rows[0][:2] = [2**52, 2**52 + int(rng.integers(100))]
    if seed % 10 == 5:  # development year 0's counts in the last year alone: the chain-ladder's first divisor is 0
        for row in rows[:-1]:
            row[0] = 0
    return rows


def _cli_errors(h) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for seed in CLI_ERRORS_SEEDS:
            csv = Path(tmp) / f"{seed}.csv"
            triangle = nb.RunOffTriangle.from_rows(_faulty_rows(seed))
            csv.write_text(nb.triangle.serialize_triangle(triangle), encoding="utf-8")
            for command, (extra, outputs) in CLI_ERRORS_COMMANDS.items():
                _run_cli(h, [command, str(csv), *extra], Path(tmp) / f"{seed}-{command}", outputs)


def _kernel_drops(h) -> None:
    for seed in KERNEL_DROPS_SEEDS:
        rng = np.random.default_rng(seed)
        dim, m = int(rng.integers(3, 11)), KERNEL_DROPS_ROWS
        (ay, dy), _ = nb.triangle.triangle_cells(dim)
        design = nb.glm.build_design(ay + 1, dy, dim, dim)
        mean = np.exp(rng.uniform(3.0, 8.0, size=(m, dim)))[:, ay] * rng.dirichlet(np.full(dim, 2.0), size=m)[:, dy]
        kappa = rng.uniform(1.0, 10.0, size=(m, 1))
        Y = rng.poisson(rng.gamma(kappa, mean / kappa)).astype(float)
        # 0 drops nothing, 1 accident year 1, 2 development year 0, 3 both, 4 random levels
        kind = rng.integers(5, size=m)
        drop_ay = (kind == 4)[:, None] & (rng.random((m, dim)) < 0.3)
        drop_dy = (kind == 4)[:, None] & (rng.random((m, dim)) < 0.3)
        drop_ay[:, 0] |= (kind == 1) | (kind == 3)
        drop_dy[:, 0] |= (kind == 2) | (kind == 3)
        Y[drop_ay[:, ay] | drop_dy[:, dy]] = 0.0
        for family in ("poisson", "quasipoisson", "negbin"):
            _feed(h, nb._bootstrap.fit_kept_levels(Y, design, family))


def _hashed(run, *args) -> str:
    h = hashlib.sha256()
    run(h, *args)
    return h.hexdigest()


# each group's runs, which must agree
GROUPS = {
    "fit-batch": lambda: [_hashed(_fit_batch)],
    "bootstrap-au": lambda: [_hashed(_bootstrap, nb.australian_bodily_injury(), warm) for warm in (False, True)],
    "bootstrap-ta": lambda: [_hashed(_bootstrap, nb.taylor_ashe(), warm) for warm in (False, True)],
    "study-desk": lambda: [_hashed(_study)],
    "reserve-cli": lambda: [_hashed(_reserve_cli)],
    "kernel-drops": lambda: [_hashed(_kernel_drops)],
    "cli-errors": lambda: [_hashed(_cli_errors)],
}


def main() -> None:
    agree = True
    for name, run in GROUPS.items():
        digests = run()
        if len(set(digests)) == 1:
            print(f"{name} {digests[0]}", flush=True)
        else:
            print(f"{name} runs disagree: {' '.join(digests)}", flush=True)
            agree = False
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
