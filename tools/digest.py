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
  seeds 0-1, serial.

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
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import nbreserve as nb  # noqa: E402
from workloads import FitBatch  # noqa: E402

FIT_BATCH_SEEDS = (0, 1, 2, 3)
BOOTSTRAP_SEEDS = (0, 1, 2)
BOOTSTRAP_B = 1000
STUDY_SEEDS = (0, 1)


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
