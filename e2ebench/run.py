#!/usr/bin/env python3
"""Builds and runs the FairBench end-to-end benchmark (see README.md).

Run from the repository root:

  python3 e2ebench/run.py --workload grid --seed 1 --seconds 16 --trace 0
  python3 e2ebench/run.py --smoke

The first form configures and builds e2ebench/ (and the library sources it
compiles from src/) in the build directory, then runs one workload; the last
line of standard output is the run's JSON result. The build directory is
$CARGO_TARGET_DIR when set, else .bench_build, both under the current
directory. --smoke runs every workload of BENCHMARK.json once at a tiny size,
traced and untraced, and checks that each reports exactly the metrics
BENCHMARK.json names, with their units.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "e2ebench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: library sources (src/) not found next to e2ebench/")
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "e2ebench"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            sys.exit(f"e2ebench: build step failed: {' '.join(step)}")
    return os.path.join(out, "e2ebench")


def run(binary, workload, seed, seconds, trace, smoke=False, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", os.path.join(build_dir(), "traces")]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def smoke(binary):
    """Every workload once, tiny, traced and untraced: all named metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(binary, workload, 1, 1, trace, smoke=True, capture=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                wrong = sorted(k for k in set(got) & set(expected)
                               if got[k] != expected[k])
                problems.append(f"metrics differ: missing {missing}, "
                                f"unexpected {extra}, wrong unit {wrong}")
            if not result.get("correct") or result.get("failed") != 0 or \
                    result.get("attempted", 0) < 1:
                problems.append("output checks failed: " +
                                json.dumps({k: result.get(k) for k in
                                            ("correct", "attempted", "failed")}))
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    binary = build()
    if args.smoke:
        return smoke(binary)
    return run(binary, args.workload, args.seed, args.seconds,
               args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
