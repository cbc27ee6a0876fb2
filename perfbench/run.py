#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (and the hyperprof libraries it links) under $CARGO_TARGET_DIR
or .bench_build/; later runs rebuild only what changed. Build output goes
to stderr. The last line of stdout is the JSON result, printed only when
it carries exactly the metrics BENCHMARK.json lists for the run's kind.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(command, timeout):
    """Runs `command` with stdout sent to stderr; fails on error or timeout."""
    try:
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        fail(f"{' '.join(command[:3])} failed: {error}")


def build(root, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def run(binary, args, spans_path):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans_path:
        command += ["--spans", spans_path]
    # A process group of its own, so a timeout stops everything it started.
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return child.returncode, out.splitlines()


def check_result(line, expected):
    """The result line must be the result JSON, with exactly `expected` metrics."""
    try:
        result = json.loads(line)
    except (json.JSONDecodeError, TypeError):
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct, attempted, failed and metrics"
    if set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        return f"metrics differ from BENCHMARK.json (missing {missing}, extra {extra})"
    if result["attempted"] < 1:
        return "no operation attempted"
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/ not found")
    with open(os.path.join(root, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {metric["name"] for metric in spec[kind]}

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    binary = build(root, build_dir)
    spans_path = (os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.json")
                  if args.trace else "")
    code, lines = run(binary, args, spans_path)
    if not lines:
        fail("the benchmark printed nothing")
    for line in lines[:-1]:
        print(line)
    problem = check_result(lines[-1], expected)
    if problem:
        fail(problem)
    print(lines[-1], flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
