#!/usr/bin/env python3
"""Build and run the end-to-end lab benchmark.

Usage (from the repository root):

    python3 labbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds labbench/ (which compiles the simulator from ../src) with CMake in
Release mode into $CARGO_TARGET_DIR/labbench, or .bench_build/labbench when
that variable is unset, then runs one measurement. Build output goes to
stderr; the last line of stdout is the benchmark's JSON result. Sink
streams and trace files are written under .bench_out/. Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sync-cofire", "async-sweep", "churn-window")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "labbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(out_dir, exist_ok=True)
    # Concurrent invocations in one checkout share the build directory.
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out_dir, "--target", "labbench",
                        "-j", jobs],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "labbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build(build_dir())
    except (OSError, subprocess.SubprocessError) as error:
        print(f"labbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", ".bench_out"]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("labbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
