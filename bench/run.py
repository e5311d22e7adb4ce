"""Benchmark for nbreserve: one workload per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The package is imported from the
checkout's ``src/``; without it the run exits with code 2 and prints no
result. With ``--trace 0`` the run measures the end-to-end metrics;
with ``--trace 1`` it runs the same requests once untraced and once
traced and reports the per-layer metrics. Either way every output is
checked, and a failed check exits with code 1 and reports no numbers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Human-readable
lines, the run record and the trace file path come before it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5


def tail(times: Sequence[float]) -> Tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With ten samples or
    fewer no percentile qualifies and the maximum is returned.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def source_identity() -> dict:
    """Commit when the checkout is a git work tree, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def import_probe(entry: str) -> None:
    """Import ``entry`` in a fresh interpreter, as a user's first command does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    subprocess.run([sys.executable, "-c", f"import {entry}"], env=env, cwd=ROOT, check=True, timeout=120)


def set_up(wl) -> Tuple[float, List[float]]:
    """Median of several set-ups: fresh-interpreter import, inputs, warm-up.

    Each set-up is rescaled to the reference speed like a request.
    Returns the median and the unscaled samples.
    """
    samples, scaled = [], []
    before = reference.sample()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        import_probe(wl.entry)
        wl.prepare()
        wl.warm_up()
        samples.append(perf_counter() - start)
        after = reference.sample()
        scaled.append(reference.rescale(samples[-1], before, after))
        before = after
    return statistics.median(scaled), samples


def measure(wl, tracer=None) -> Tuple[List[float], List[float], list]:
    """Run every request in order.

    Returns per-request seconds, the same rescaled to the reference
    speed, and outputs. Untraced, the reference kernel is sampled before
    the first request and after every ``wl.ref_every`` requests; each
    request's time is multiplied by ``REFERENCE_S`` over the mean of the
    two samples around it. Traced runs take no samples and rescale
    nothing.
    """
    run = wl.run if tracer is None else tracer.wrap("request", wl.run)
    times, scaled, outputs = [], [], []
    before = reference.sample() if tracer is None else 0.0
    for k in range(wl.n_requests):
        if tracer is not None:
            tracer.request = k
        start = perf_counter()
        raw = run(k)
        times.append(perf_counter() - start)
        if tracer is None and ((k + 1) % wl.ref_every == 0 or k + 1 == wl.n_requests):
            after = reference.sample()
            scaled += [reference.rescale(t, before, after) for t in times[len(scaled):]]
            before = after
        outputs.append(wl.collect(k, raw))
    return times, scaled, outputs


def peak_rss_mb() -> float:
    """Peak RSS of this process in MB; the set-up's import probes are children and do not count."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def declared(kind: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]], kind: str) -> None:
    if correct:
        units = declared(kind)
        got = {name: unit for name, (_, unit) in metrics.items()}
        if got != units:
            raise SystemExit(f"benchmark error: metrics {sorted(got.items())} do not match BENCHMARK.json {kind}")
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()} if correct else {},
    }
    print(json.dumps(payload), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nbreserve" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, usable_cores

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    start = perf_counter()
    nb = importlib.import_module("nbreserve")
    importlib.import_module(workload.entry)
    import_s = perf_counter() - start
    if Path(nb.__file__).resolve().parent != SRC / "nbreserve":
        print(f"bench: imported nbreserve from {nb.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", category=nb.glm.ConditioningWarning)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"tmp-{os.getpid()}"
    try:
        wl = workload(nb, args.seed, args.seconds, work)
        setup_s, setup_samples = set_up(wl)
        print(f"setup: median {setup_s:.4f} s rescaled, of unscaled {[round(s, 4) for s in setup_samples]}; "
              f"in-process import {import_s:.4f} s")

        times, scaled, outputs = measure(wl)
        rss_mb = peak_rss_mb()
        wall_s = sum(times)
        attempted = failed = 0
        for out in outputs:
            a, f = wl.account(out)
            attempted += a
            failed += f
        errors = wl.check(outputs)

        if args.trace:
            from spans import HookMissing, Tracer, layer_metrics

            tracer = Tracer()
            try:
                tracer.install()
                t_times, _, t_outputs = measure(wl, tracer)
            except HookMissing as exc:
                print(f"CHECK FAILED: {exc}", file=sys.stderr)
                emit(False, attempted, failed, {}, "per_layer")
                return 1
            finally:
                tracer.uninstall()
            errors += [f"trace observer {e}" for e in tracer.observer_errors]
            errors += [f"request {k}: traced output differs from untraced"
                       for k, (a, b) in enumerate(zip(outputs, t_outputs)) if not wl.same(a, b)]
            extras, extra_errors = wl.traced_extras(outputs)
            errors += extra_errors
            metrics = layer_metrics(tracer, parallel_eff=extras.get("bootstrap.parallel_eff", 0.0))
        else:
            tracer = None
            t_times = []

        record = {
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            **source_identity(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "click": metadata.version("click"),
            "nproc": os.cpu_count(),
            "usable_cores": usable_cores(),
            "workers": 1,
            "sizes": wl.sizes(),
        }
        print("record: " + json.dumps(record))

        if errors:
            for e in errors:
                print(f"CHECK FAILED: {e}", file=sys.stderr)
            emit(False, attempted, failed, {}, "end_to_end")
            return 1

        if tracer is None:
            # unscaled times and item percentiles are printed but not in
            # BENCHMARK.json: the host's speed swings move them past any bound
            print(f"wall_s = {wall_s!r} s (unscaled sum over {len(times)} requests; no bound)")
            for label, values in (("scaled", scaled), ("unscaled", times)):
                tail_s, pct, beyond = tail(values)
                print(f"item_p50_s = {statistics.median(values)!r} s, item_tail_s = {tail_s!r} s "
                      f"(p{pct:.1f}, {beyond} beyond) of n={len(values)} items, {label}; no bound")
            print(f"fail_frac = {failed} / {attempted} = {failed / attempted:.6f}")
            metrics = {
                "norm_wall_s": (sum(scaled), "s"),
                "ok_frac": ((attempted - failed) / attempted, "ratio"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            kind = "end_to_end"
        else:
            print_trace_report(tracer, metrics, wall_s, sum(t_times))
            path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
            tracer.write(path)
            print(f"spans written to {path.relative_to(ROOT)}")
            kind = "per_layer"
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value!r} {unit}")
        emit(True, attempted, failed, metrics, kind)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_trace_report(tracer, metrics, untraced_s: float, traced_s: float) -> None:
    print(f"{'span':34s} {'calls':>8s} {'inclusive_s':>12s} {'self_s':>10s}")
    for name, (calls, inc, own) in sorted(tracer.table().items(), key=lambda kv: -kv[1][2]):
        print(f"{name:34s} {calls:8d} {inc:12.4f} {own:10.4f}")
    c = tracer.counts
    reps = c["bootstrap.replicates"]
    irls = metrics["glm.irls_calls"][0]
    profiles = tracer.calls("dispersion.profile_kappa")
    print(f"counts: irls {irls} calls, {c['glm.irls_iters']} iterations; "
          f"{c['glm.deviance_evals']} deviance evaluations")
    if reps:
        print(f"per replicate (base {reps}): irls {irls / reps:.3f}, deviance {c['glm.deviance_evals'] / reps:.3f}, "
              f"dropped-level {c['bootstrap.dropped_level']} ({c['bootstrap.dropped_level'] / reps:.4f}), "
              f"failed {c['bootstrap.refit_failed']}, useful {reps - c['bootstrap.refit_failed']} of {reps}")
    print(f"kappa at cap: {c['kappa_at_cap.nb_mle']} of {tracer.calls('dispersion.nb_mle')} nb_mle calls, "
          f"{c['kappa_at_cap.profile']} of {profiles} profile_kappa calls; "
          f"profile refits {c['dispersion.profile_refits']} over {profiles} profiles")
    overhead = traced_s - untraced_s
    print(f"trace overhead: traced {traced_s:.4f} s - untraced {untraced_s:.4f} s = {overhead:.4f} s "
          f"({100.0 * overhead / untraced_s:+.1f}%)")


if __name__ == "__main__":
    sys.exit(main())
