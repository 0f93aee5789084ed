#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload ingest|train|audit --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/ (the caltrain
library from ../src through the repository's own CMakeLists.txt, plus
the benchmark binary) into $CARGO_TARGET_DIR or .bench_build, then runs
one workload with every entry of perfbench/config.json.  Build output
goes to stderr; the benchmark's own lines go to stdout, the last of
them one JSON object {correct, attempted, failed, metrics}.  Exits
nonzero, without a result line, when the sources are missing or the
build fails, and nonzero when any correctness check fails.

    python3 perfbench/run.py --self-test   # statistics helper self-test
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "train", "audit")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no caltrain sources next to perfbench/", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def config_flags():
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    flags = []
    for key, value in config.items():
        flags += ["--" + key, str(value)]
    return flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    if args.self_test:
        return subprocess.run([binary, "--self-test"]).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(out, "perfbench-out")] + config_flags()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        print("perfbench: no result line (exit code %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or result.get("correct") is not True:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
