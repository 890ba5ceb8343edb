#!/usr/bin/env python3
"""Build and run the DUFS metadata benchmark (README.md next to this file).

    python3 dufsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver is built from source with CMake
into $CARGO_TARGET_DIR (default: .bench_build). The last line printed on
stdout is the driver's result, one JSON object with the keys correct,
attempted, failed and metrics; everything else goes to stderr. The exit code
is 0 only when the build, the run and every output check succeeded.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("create-storm", "stat-zipf", "mixed-pvfs-open")
RUN_TIMEOUT_S = 170


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"

    def configure_and_build():
        # Configure every time (a no-op takes well under a second): a
        # configure that failed earlier, say where the system's sources were
        # missing, leaves a cache but no build system behind.
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                        "--target", "dufsbench"], check=True, stdout=sys.stderr)

    try:
        configure_and_build()
    except subprocess.CalledProcessError:
        if not os.path.exists(build_dir):
            raise
        # Whatever state an earlier build left, start over from nothing once.
        print("dufsbench: build failed; retrying in an empty build directory",
              file=sys.stderr)
        shutil.rmtree(build_dir)
        configure_and_build()
    return os.path.join(build_dir, "dufsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"dufsbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("dufsbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("dufsbench: driver printed no result", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not result.get("correct"):
        print(f"dufsbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
