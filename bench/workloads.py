"""The four benchmark workloads.

Each workload is a closed loop from one caller: request ``k`` starts
only after request ``k - 1`` has returned. Inputs come from the
benchmark seed alone; the package sees only the generated inputs. The
number of requests follows from ``--seconds`` and a fixed nominal cost
per request, so one ``--seconds`` value means the same work on every
commit and ``norm_wall_s`` is the time to solve it. Requests are short
(about 0.5 to 1 s, or groups of ``fit-batch`` triangles) so that the
reference kernel sampled between them follows the host's speed.

Package functions are looked up through their submodules at call time
(``nb.predictive.bootstrap``), so the traced run's hooks see them.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

LEVELS = (0.75, 0.95)

# seconds of requests between two samples of the reference kernel
REF_INTERVAL_S = 0.5

# fit-batch profile checks: log-likelihood agreement, log-kappa agreement,
# and the independent kappa grid the profile maximum must not fall below
LOGLIK_TOL = 1e-3
KAPPA_LOG_TOL = 1e-3
KAPPA_GRID = tuple(np.geomspace(0.1, 1e5, 16).tolist())


def usable_cores() -> int:
    """Cores this process may run on, never more than ``os.cpu_count()``."""
    nproc = os.cpu_count() or 1
    try:
        return max(1, min(nproc, len(os.sched_getaffinity(0))))
    except AttributeError:  # platforms without affinity masks
        return nproc


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * target


def _interval(draws: np.ndarray, level: float) -> Tuple[float, float]:
    lo, hi = np.quantile(draws, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return float(lo), float(hi)


class Workload:
    """One workload: inputs, a request, its accounting and its checks."""

    name = ""
    entry = "nbreserve"  # module a user of this workload imports
    nominal_request_s = 1.0  # request cost at the commit that defined the benchmark
    min_requests = 1

    def __init__(self, nb, seed: int, seconds: float, work: Path):
        self.nb = nb
        self.seed = seed
        self.work = work
        self.n_requests = max(self.min_requests, round(seconds / self.nominal_request_s))
        self.ref_every = max(1, round(REF_INTERVAL_S / self.nominal_request_s))

    def request_seed(self, k: int) -> int:
        """Package seed for request ``k``; warm-up uses ``k = -1``."""
        return int(np.random.SeedSequence([self.seed, k + 1]).generate_state(1)[0])

    def prepare(self) -> None:
        """Build the inputs (part of set-up)."""

    def warm_up(self) -> None:
        """One small request so lazy first-call costs land in set-up."""

    def run(self, k: int):
        raise NotImplementedError

    def collect(self, k: int, raw):
        """Turn a request's raw return into its output, outside the timer."""
        return raw

    def account(self, out) -> Tuple[int, int]:
        """(operations attempted, operations failed) for one request."""
        raise NotImplementedError

    def check(self, outputs: Sequence) -> List[str]:
        """Correctness failures over all outputs of a pass."""
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """Whether two outputs of one request are identical."""
        raise NotImplementedError

    def traced_extras(self, outputs: Sequence) -> Tuple[Dict[str, float], List[str]]:
        """Extra traced-run measurements and their check failures."""
        return {}, []

    def sizes(self) -> dict:
        return {"requests": self.n_requests}


class BootstrapAU(Workload):
    name = "bootstrap-au"
    nominal_request_s = 0.55
    B = 100

    def prepare(self) -> None:
        self.triangle = self.nb.australian_bodily_injury()

    def warm_up(self) -> None:
        self.nb.predictive.bootstrap(self.triangle, b=20, seed=self.request_seed(-1), workers=1)

    def run(self, k: int):
        nb = self.nb
        dist = nb.predictive.bootstrap(self.triangle, b=self.B, correct=True, seed=self.request_seed(k), workers=1)
        return dist, nb.predictive.summarize(dist, LEVELS)

    def account(self, out) -> Tuple[int, int]:
        return self.B, out[0].refit_failures

    def check(self, outputs) -> List[str]:
        errors = []
        for k, (dist, _) in enumerate(outputs):
            # acceptance criterion 01: kappa_mle in [4.7, 4.9]
            if not 4.7 <= dist.kappa_mle <= 4.9:
                errors.append(f"request {k}: kappa_mle {dist.kappa_mle:.4f} outside [4.7, 4.9]")
            if dist.b_effective + dist.refit_failures != self.B:
                errors.append(f"request {k}: {dist.b_effective} draws + {dist.refit_failures} failures != {self.B}")
        # acceptance criterion 04: 95% interval within 10% of [1563, 7785],
        # on the pooled draws of all requests (independent substreams)
        lo, hi = _interval(np.concatenate([d.draws_total for d, _ in outputs]), 0.95)
        if not (_within(lo, 1563, 0.1) and _within(hi, 7785, 0.1)):
            errors.append(f"pooled 95% interval [{lo:.0f}, {hi:.0f}] outside criterion 04 bounds")
        return errors

    def same(self, a, b) -> bool:
        return np.array_equal(a[0].draws_total, b[0].draws_total)

    def sizes(self) -> dict:
        return {"requests": self.n_requests, "B": self.B, "triangle": "australian 7x7"}


class ReserveTaCli(Workload):
    name = "reserve-ta-cli"
    entry = "nbreserve.cli"
    nominal_request_s = 0.5
    B = 100

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.csv = self.work / "taylor_ashe.csv"

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        text = self.nb.triangle.serialize_triangle(self.nb.taylor_ashe())
        self.csv.write_text(text, encoding="utf-8")

    def _invoke(self, b: int, seed: int, out_dir: Path) -> None:
        args = [
            "reserve", str(self.csv), "-B", str(b),
            "--level", str(LEVELS[0]), "--level", str(LEVELS[1]),
            "--threads", "1", "--out-dir", str(out_dir), "--seed", str(seed),
        ]
        sink, errs = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(sink), redirect_stderr(errs):
                self.nb.cli.main.main(args, standalone_mode=False)
        except SystemExit as exc:
            raise RuntimeError(f"nbreserve reserve exited with {exc.code}: {errs.getvalue().strip()}") from None

    def warm_up(self) -> None:
        # 100 draws is the least summarize accepts
        out_dir = self.work / "warm-up"
        self._invoke(100, self.request_seed(-1), out_dir)
        shutil.rmtree(out_dir)

    def run(self, k: int):
        out_dir = self.work / f"reserve-{k}"
        self._invoke(self.B, self.request_seed(k), out_dir)
        return out_dir

    def collect(self, k: int, out_dir: Path):
        summary = json.loads((out_dir / "reserve.json").read_text(encoding="utf-8"))
        lines = (out_dir / "draws.csv").read_text(encoding="utf-8").splitlines()
        draws = np.array([int(v) for v in lines if v and not v.startswith("#") and v != "total"], dtype=np.int64)
        shutil.rmtree(out_dir)
        return summary, draws

    def account(self, out) -> Tuple[int, int]:
        return self.B, int(out[0]["refit_failures"])

    def check(self, outputs) -> List[str]:
        errors = []
        for k, (summary, draws) in enumerate(outputs):
            # acceptance criterion 05: kappa within 0.5 of 13.8
            if abs(summary["kappa_mle"] - 13.8) > 0.5:
                errors.append(f"request {k}: kappa_mle {summary['kappa_mle']:.3f} outside 13.8 +- 0.5")
            if summary["b_effective"] + summary["refit_failures"] != self.B or draws.size != summary["b_effective"]:
                errors.append(f"request {k}: draws do not add up to B = {self.B}")
        # acceptance criterion 05: 95% interval within 10% of the published one
        lo, hi = _interval(np.concatenate([d for _, d in outputs]), 0.95)
        if not (_within(lo, 13_288_238, 0.1) and _within(hi, 24_447_436, 0.1)):
            errors.append(f"pooled 95% interval [{lo:.0f}, {hi:.0f}] outside criterion 05 bounds")
        return errors

    def same(self, a, b) -> bool:
        return np.array_equal(a[1], b[1])

    def traced_extras(self, outputs):
        """Worker-count invariance and parallel efficiency on request 0."""
        predictive = self.nb.predictive
        t = self.nb.triangle.read_triangle(self.csv)
        seed = self.request_seed(0)
        workers = usable_cores()
        start = perf_counter()
        serial = predictive.bootstrap(t, b=self.B, seed=seed, workers=1)
        t_serial = perf_counter() - start
        start = perf_counter()
        pooled = predictive.bootstrap(t, b=self.B, seed=seed, workers=workers)
        t_pool = perf_counter() - start
        errors = []
        if not np.array_equal(serial.draws_total, outputs[0][1]):
            errors.append("CLI draws differ from a workers=1 bootstrap of the same triangle and seed")
        if not np.array_equal(serial.draws_total, pooled.draws_total):
            errors.append(f"workers={workers} draws differ from workers=1 draws")
        eff = t_serial / (workers * t_pool)
        print(
            f"parallel: workers=1 {t_serial:.3f} s, workers={workers} {t_pool:.3f} s, "
            f"speed-up {t_serial / t_pool:.2f}x, efficiency {eff:.3f}"
        )
        return {"bootstrap.parallel_eff": eff}, errors

    def sizes(self) -> dict:
        return {"requests": self.n_requests, "B": self.B, "triangle": "taylor-ashe 10x10"}


class StudyDesk(Workload):
    name = "study-desk"
    nominal_request_s = 0.75
    B = 50

    def _config(self, b: int, seed: int):
        return self.nb.simulation.default_config(kappa_true=10.0, n_sim=1, b=b, seed=seed)

    def warm_up(self) -> None:
        self.nb.simulation.run_study(self._config(10, self.request_seed(-1)))

    def run(self, k: int):
        return self.nb.simulation.run_study(self._config(self.B, self.request_seed(k)))

    def account(self, out) -> Tuple[int, int]:
        return out.config.n_sim * len(out.methods), sum(m.n_failed for m in out.methods)

    def check(self, outputs) -> List[str]:
        errors = []
        for k, study in enumerate(outputs):
            if len(study.methods) != 4:
                errors.append(f"request {k}: {len(study.methods)} methods, expected 4")
            for m in study.methods:
                if m.n_completed + m.n_failed != study.config.n_sim:
                    errors.append(f"request {k}: {m.method} completed + failed != n_sim")
        return errors

    def same(self, a, b) -> bool:
        csv = self.nb.simulation.study_csv
        return csv(a) == csv(b)

    def sizes(self) -> dict:
        return {"requests": self.n_requests, "n_sim_per_request": 1, "b": self.B, "methods": 4}


class FitBatch(Workload):
    name = "fit-batch"
    nominal_request_s = 0.065
    min_requests = 200  # the 11th-slowest item is then at least the p95

    def _triangle(self, rng: np.random.Generator):
        """One triangle with every accident and development year nonzero.

        About 70% of the triangles are overdispersed (kappa 2-100),
        the rest Poisson. A draw with an all-zero factor level is
        redrawn: the package rightly rejects it with SeparationError, and
        the workload must consist of operations that succeed.
        """
        while True:
            dim = int(rng.integers(6, 13))
            scale = math.exp(rng.uniform(math.log(2e2), math.log(2e4)))
            ultimates = scale * rng.uniform(0.8, 1.25, size=dim)
            decay = np.cumprod(np.full(dim - 1, rng.uniform(0.55, 0.9)))
            raw = np.concatenate(([rng.uniform(0.2, 0.5)], rng.uniform(0.5, 1.0, size=dim - 1) * decay))
            weights = raw / raw.sum()
            kappa = math.exp(rng.uniform(math.log(2.0), math.log(100.0))) if rng.random() < 0.7 else math.inf
            rows = []
            for i in range(dim):
                mu = ultimates[i] * weights[: dim - i]
                lam = mu if math.isinf(kappa) else rng.gamma(kappa, mu / kappa)
                rows.append(rng.poisson(lam).tolist())
            col_tot = np.zeros(dim)
            for r in rows:
                col_tot[: len(r)] += r
            if np.all(col_tot > 0) and all(sum(r) > 0 for r in rows):
                return self.nb.RunOffTriangle.from_rows(rows)

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 0xF17])
        self.triangles = [self._triangle(rng) for _ in range(self.n_requests + 1)]

    def warm_up(self) -> None:
        self.run(self.n_requests)

    def _pipeline(self, t):
        nb = self.nb
        text = nb.triangle.serialize_triangle(t)
        parsed = nb.triangle.parse_triangle(text)
        reserve = nb.chainladder.chain_ladder(parsed).total_reserve
        records = nb.triangle.to_long(parsed)
        est = nb.dispersion.profile_kappa(records)
        report = nb.dispersion.overdispersion_test(records)
        model = nb.glm.fit(records, nb.glm.Family.negbin(est.kappa_mle))
        residuals = nb.diagnostics.pearson_residuals(model)
        return parsed, reserve, est, report, model.loglik, residuals.pearson

    def run(self, k: int):
        try:
            return self._pipeline(self.triangles[k])
        except self.nb.errors.ReservingError as exc:
            return exc

    @staticmethod
    def joint_fit_missed(out) -> bool:
        """Whether ``overdispersion_test``'s joint fit fell short of the profile maximum.

        ``nb_mle`` is documented to reach the profile optimum. On some
        triangles (about 6% of this workload's) it stops at the kappa cap
        while the profile finds an interior kappa with a higher
        likelihood, so the test's statistic is wrong; such a triangle is
        a failed operation.
        """
        _, _, est, report, _, _ = out
        return est.loglik - report.loglik_nb > LOGLIK_TOL

    def account(self, out) -> Tuple[int, int]:
        return 1, int(isinstance(out, Exception) or self.joint_fit_missed(out))

    def check(self, outputs) -> List[str]:
        nb = self.nb
        errors = []
        for k, out in enumerate(outputs):
            if isinstance(out, Exception):
                continue
            parsed, reserve, *_ = out
            if parsed != self.triangles[k]:
                errors.append(f"triangle {k}: CSV round trip changed the counts")
            # acceptance criterion 03: the Poisson fit reproduces chain-ladder
            records = nb.triangle.to_long(parsed)
            model = nb.glm.fit(records, nb.glm.Family.poisson())
            n = parsed.dimension
            future = sum(model.mu_at(i, j) for i in range(1, n + 1) for j in range(n) if i + j > n)
            if abs(future - reserve) > 1e-8 * max(abs(reserve), 1.0):
                errors.append(f"triangle {k}: Poisson future sum {future!r} != chain-ladder {reserve!r}")
            errors += [f"triangle {k}: {e}" for e in self._check_profile(records, out)]
        return errors

    def _check_profile(self, records, out) -> List[str]:
        """``profile_kappa`` against an independent kappa grid and the joint fit.

        The profile's log-likelihood must be that of a negative binomial
        fit at its kappa, and no lower than the best of a coarse grid of
        such fits or the joint fit. Where the joint fit reaches the same
        maximum and the profile's 95% interval is bounded above, so that
        kappa is identified, the two kappas must agree. Elsewhere the
        profile is flat toward the cap, and the two may stop at
        different large kappas or differ in their at-cap flags.
        """
        nb = self.nb
        _, _, est, report, model_loglik, _ = out
        cap = nb.dispersion.KAPPA_CAP
        errors = []
        if abs(est.loglik - model_loglik) > LOGLIK_TOL:
            errors.append(f"profile loglik {est.loglik!r} != NB fit loglik {model_loglik!r} at its kappa")
        grid = max(nb.glm.fit(records, nb.glm.Family.negbin(kappa)).loglik for kappa in KAPPA_GRID + (cap,))
        best = max(grid, report.loglik_nb)
        if est.loglik < best - LOGLIK_TOL:
            errors.append(f"profile loglik {est.loglik!r} below {best!r} of the kappa grid and joint fit")
        if est.ci95[1] < cap and not self.joint_fit_missed(out):
            if abs(math.log(est.kappa_mle / report.kappa_mle)) > KAPPA_LOG_TOL:
                errors.append(f"profile kappa {est.kappa_mle!r} != joint-fit kappa {report.kappa_mle!r}")
        return errors

    def same(self, a, b) -> bool:
        if isinstance(a, Exception) or isinstance(b, Exception):
            return type(a) is type(b) and str(a) == str(b)
        return (
            a[1] == b[1]
            and (a[2].kappa_mle, a[2].loglik, a[3].statistic) == (b[2].kappa_mle, b[2].loglik, b[3].statistic)
            and np.array_equal(a[5], b[5])
        )

    def sizes(self) -> dict:
        dims = [t.dimension for t in self.triangles[: self.n_requests]]
        return {"requests": self.n_requests, "dims": f"{min(dims)}-{max(dims)}", "cells": sum(d * (d + 1) // 2 for d in dims)}


WORKLOADS = {w.name: w for w in (BootstrapAU, ReserveTaCli, StudyDesk, FitBatch)}
