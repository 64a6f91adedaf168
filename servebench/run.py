#!/usr/bin/env python3
"""The serving benchmark's one command.

    python3 servebench/run.py --workload ide-cold --seed 1 --seconds 30 --trace 0
    python3 servebench/run.py --workload all            # every workload, untraced then traced
    python3 servebench/run.py --selftest                # the benchmark's own tests
    python3 servebench/run.py --compare BASE.txt NEW.txt  # medians side by side

Builds the repository's libraries and the benchmark from source into
.bench_build/servebench (the first run configures and compiles; later runs
only check that the build is current), then runs the `servebench` binary.
The last line of standard output is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output goes to standard error.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
CHECKPOINT = os.path.join(HERE, "model", "served-350m.bin")
WORKLOADS = ["ide-cold", "ide-session", "batch-eval"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository's src/ is missing next to servebench/; nothing to build")
    if not os.path.isfile(CHECKPOINT):
        fail("missing checkpoint " + CHECKPOINT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")


def run_benchmark(workload, seed, seconds, trace):
    cmd = [os.path.join(BUILD, "servebench"), "run", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--checkpoint", CHECKPOINT]
    try:
        return subprocess.call(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)


def reports(path):
    with open(path) as f:
        return [json.loads(line[len("report: "):]) for line in f
                if line.startswith("report: ")]


def compare(base_path, new_path):
    base, new = reports(base_path), reports(new_path)
    if not base or not new:
        fail("no 'report:' lines in %s" % (base_path if not base else new_path))
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) != 1:
        print("refused: the runs' host fingerprints differ:")
        for p in sorted(prints):
            print("  " + p)
        sys.exit(3)
    workloads = {r["workload"] for r in base + new}
    if len(workloads) != 1:
        fail("the runs are of different workloads: %s" % sorted(workloads), 3)
    print("%-34s %14s %14s %9s" % ("metric", "base median", "new median", "new/base"))
    for name in base[0]["metrics"]:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new if name in r["metrics"])
        ratio = n / b if b else float("nan")
        print("%-34s %14.6g %14.6g %9.4f" % (name, b, n, ratio))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        build(["servebench_tests"])
        return subprocess.call([os.path.join(BUILD, "servebench_tests")])
    if not args.workload:
        ap.error("--workload is required")
    build(["servebench"])
    if args.workload != "all":
        return run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            print("=== %s trace=%d ===" % (workload, trace), flush=True)
            if run_benchmark(workload, args.seed, args.seconds, trace) != 0:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
