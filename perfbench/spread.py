#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload oltp_wire --runs 10 [--first-seed 1]
                                [--trace 0] [--seconds N]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...),
then prints, for every metric, the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median. End-to-end spreads are
compared with the bound in BENCHMARK.json. It also checks that every seed
produced the same shape-level counts. Everything, including the host
block and each run's values, goes to
perfbench/results/spread-<workload>-trace<t>.json so the spread can be
recomputed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in range(a.first_seed, a.first_seed + a.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", a.trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        last = proc.stdout.rstrip("\n").split("\n")[-1]
        if proc.returncode != 0:
            print(proc.stdout, file=sys.stderr)
            sys.exit(f"seed {seed}: run failed with exit code {proc.returncode}")
        result = json.loads(last)
        record_path = os.path.join(
            HERE, "results", f"run-{a.workload}-seed{seed}-trace{a.trace}.json")
        with open(record_path) as f:
            record = json.load(f)
        runs.append({"seed": seed, "result": result, "record": record})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {values}", flush=True)

    shapes = {json.dumps(r["record"]["shape"], sort_keys=True) for r in runs}
    summary = {}
    print(f"\n{a.workload} ({len(runs)} runs, {seconds} s each)")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread <= bound / 3 else "  > bound/3"
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    print(f"shape-level counts identical across seeds: {len(shapes) == 1}")
    out = {
        "workload": a.workload,
        "trace": a.trace,
        "seconds": seconds,
        "repeats": len(runs),
        "seeds": [r["seed"] for r in runs],
        "host": runs[0]["record"]["host"],
        "shape_consistent": len(shapes) == 1,
        "shape": runs[0]["record"]["shape"],
        "metrics": summary,
        "runs": [{"seed": r["seed"], "correct": r["result"]["correct"],
                  "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
                  "detail": r["record"]["detail"],
                  "setup_samples_s": r["record"]["setup_samples_s"]} for r in runs],
    }
    path = os.path.join(HERE, "results", f"spread-{a.workload}-trace{a.trace}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
    print(f"written to {os.path.relpath(path, ROOT)}")
    if len(shapes) != 1:
        sys.exit("shape-level counts differ between seeds")


if __name__ == "__main__":
    main()
