#!/usr/bin/env python3
"""Build and run the orion-oodb benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <fleet_query|oltp_wire|navigate> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, which depends on the
repository's crates by path) in release mode into $CARGO_TARGET_DIR
(default .bench_build), runs it, and passes its output through. The last
line of standard output is the JSON result; before printing it, this
script checks that its metric names are exactly those BENCHMARK.json
lists for the run's mode. Run records and span files go to
perfbench/results/. Exits non-zero without a result if the build fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run itself must end within 180 s; the benchmark's own watchdog
# ends a stalled run long before this.
RUN_TIMEOUT_S = 170


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "orion-perfbench")
    try:
        proc = subprocess.run(
            [binary, *argv, "--out-dir", os.path.join(HERE, "results")],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(lines[-1] if lines else "")
        print("perfbench: the run printed no JSON result", file=sys.stderr)
        return proc.returncode or 2
    missing = expected_metrics(trace) - set(result["metrics"])
    extra = set(result["metrics"]) - expected_metrics(trace)
    if proc.returncode == 0 and (missing or extra):
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
              f"unlisted {sorted(extra)}", file=sys.stderr)
        return 2
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
