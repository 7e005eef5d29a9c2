#!/usr/bin/env python3
"""FlowGuard benchmark: builds the benchmark package, runs one workload
and prints its result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Workloads: serve, storm, cold-fleet (see perfbench/README.md). With
--trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The package is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) inside the checkout. Exit codes: 0 pass, 1 correctness
gate failed, 2 build or usage error, 3 malformed result.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures (once) and builds the package; returns the binary."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed:", " ".join(step))
            return None
    return out / "flowguard_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}, \
        [w["name"] for w in spec["workloads"]]


def check_result(line, expected):
    """Returns why the result line breaks the contract, or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as err:
        return f"last line is not JSON ({err})"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return f"metrics differ: missing {missing}, extra {extra}, " \
               f"or units differ"
    if result["attempted"] < 1:
        return "no operation attempted"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        expected, workloads = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as err:
        log("cannot read BENCHMARK.json:", err)
        return 2
    if args.workload not in workloads:
        log("unknown workload", args.workload, "- one of", workloads)
        return 2

    binary = build(build_dir())
    if binary is None:
        return 2

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after", RUN_TIMEOUT_S, "s")
        return 2
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1):
        sys.stdout.write(done.stdout)
        log("benchmark exited with", done.returncode)
        return 2
    why = check_result(lines[-1], expected)
    if why:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("malformed result:", why)
        return 3
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
