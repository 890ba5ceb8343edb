#!/usr/bin/env python3
"""Self-tests of the DUFS metadata benchmark.

    python3 dufsbench/selftest.py

Run from the root of a checkout; builds the driver like run.py. For every
workload, at tiny scale:
  * two runs with the same seed report identical simulated metrics and
    per-layer counts (host-time metrics excepted);
  * another seed generates different inputs, the same seed the same ones;
  * a run passes every output check (namespace model, fsck, replica
    fingerprints, FUSE dispatch count) and the trace reconciles.
Exits 0 when all pass.
"""
import json
import subprocess
import sys

from run import WORKLOADS, build

# Metrics measured in host time; everything else is simulated or counted
# and must repeat exactly for a seed.
HOST_METRICS = {"host_ns_per_op", "setup_s", "peak_rss_mb",
                "sim.host_ns_per_event", "obs.trace_host_overhead",
                "obs.unattributed_share", "obs.profile_samples"}


def is_host(name):
    return name in HOST_METRICS or name.endswith(".host_share")


def driver(binary, *args):
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def run_tiny(binary, workload, seed, trace):
    code, lines = driver(binary, f"--workload={workload}", f"--seed={seed}",
                         "--seconds=0", "--scale=tiny", f"--trace={trace}")
    result = json.loads(lines[-1]) if lines else {}
    return code, result


def simulated(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if not is_host(k)}


def main():
    binary = build()
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        digests = [driver(binary, f"--workload={workload}", f"--seed={seed}",
                          "--digest")[1][-1] for seed in (1, 1, 2)]
        check(digests[0] == digests[1], f"{workload}: same seed, same inputs")
        check(digests[0] != digests[2],
              f"{workload}: other seed, other inputs")
        for trace in (0, 1):
            first = run_tiny(binary, workload, 5, trace)
            second = run_tiny(binary, workload, 5, trace)
            for code, result in (first, second):
                check(code == 0 and result.get("correct") is True
                      and result.get("failed") == 0,
                      f"{workload} trace={trace}: output checks pass")
            if first[0] == 0 and second[0] == 0:
                check(simulated(first[1]) == simulated(second[1]),
                      f"{workload} trace={trace}: same seed, same metrics")
            if trace == 1 and first[0] == 0:
                reconciled = first[1]["metrics"]["obs.trace_reconciled"]
                check(reconciled["value"] == 1,
                      f"{workload}: trace reconciles with the op timers")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
