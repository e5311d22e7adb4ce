"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 10 [--workloads a,b] [--out runs.json]
    python3 bench/spread.py --repeat-trace --seed 0 [--workloads a,b]

The first form runs every listed workload untraced once per seed
(seeds 0, 1, ...), in order, for BENCHMARK.json's ``run_seconds``. It
prints for each end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median, next to the metric's bound, and the
same for the unscaled request time each run prints. The
second form makes two traced runs of one seed per workload and checks
that every count metric repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # the unscaled sum, printed beside the result, shows what rescaling removed
    unscaled = [line.split()[2] for line in lines if line.startswith("wall_s = ")]
    if unscaled:
        result["unscaled_wall_s"] = float(unscaled[0])
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--repeat-trace", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    if args.repeat_trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        ok = True
        for w in workloads:
            a, b = (run_once(spec, w, args.seed, 1)["metrics"] for _ in range(2))
            counts = [n for n, u in units.items() if u == "count"]
            diff = [n for n in counts if a[n]["value"] != b[n]["value"]]
            ok &= not diff
            print(f"{w}: {len(counts) - len(diff)} of {len(counts)} counts repeat" + (f"; differ: {diff}" if diff else ""))
            print("  " + ", ".join(f"{n}={a[n]['value']:.6g}" for n in units if a[n]["value"]), flush=True)
        return 0 if ok else 1

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in range(args.seeds):
            result = run_once(spec, w, seed, 0)
            runs[w].append({"seed": seed, **result})
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    worst = 0.0
    print(f"\n{'workload':16s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w, rows in runs.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{w:16s} {name:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.2f}")
        values = [r["unscaled_wall_s"] for r in rows]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        print(f"{w:16s} {'wall_s':12s} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med:8.4f} (unscaled; no bound)")
    print(f"\nlargest spread / bound, setup_s aside: {worst:.3f}")
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
