#!/usr/bin/env bash
# Byte-compares the simulated outputs of a base commit and the working tree.
#
#   tools/sim_identity.sh BASE_REF
#
# Builds BASE_REF in a temporary git worktree and the working tree in a
# temporary build directory (Release, bench targets only), then runs each
# bench below in both builds and compares its stdout, --baseline JSON and
# --metrics-json output byte for byte. The simulation is deterministic, so
# any difference is a change in simulated behaviour.
#
# It also builds dufsbench (dufsbench/, its own CMake project) from both
# trees and runs its three workloads once each at seed 1. Their simulated
# metrics (sim_ops_per_s, read/write p50/p99 and ok_frac; not the host-time
# ones) are written one per line and compared the same way. The fig benches
# never list a directory; these workloads do.
#
# Every bench below writes a --baseline that is checked in under
# bench/baselines/; fig07, fig08 and fig09 put every table cell in theirs,
# so any figure number that moves also moves a baseline metric.
#
# Exit status: 1 when an output differs and bench/baselines/ is the same as
# at BASE_REF, counting files not yet added to git (a change that means to
# move simulated results regenerates the checked-in baselines with it); 0
# otherwise. Every differing file is
# listed either way. Run from anywhere inside the checkout; set JOBS to
# bound the build's parallelism (default: nproc).
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BASE_REF" >&2
  exit 2
fi
base_ref=$1
root=$(git rev-parse --show-toplevel)
jobs=${JOBS:-$(nproc)}
work=$(mktemp -d)
cleanup() {
  git -C "$root" worktree remove --force "$work/base-src" >/dev/null 2>&1 ||
    true
  rm -rf "$work"
}
trap cleanup EXIT

# name, then its flags. fig10, fig11 and fig13 run at the flags CI gates
# them with; fig07, fig08 and fig09 run their default sweeps (a bench exits
# 1 on a flag it does not read).
benches=(
  "fig07_zk_throughput"
  "fig08_zk_servers"
  "fig09_backends"
  "fig10_native_compare --procs=16,64 --items=5"
  "fig11_memory --millions=0.1"
  "fig13_deep_tree"
  "ablation_fastpath"
)
targets=()
for spec in "${benches[@]}"; do targets+=("${spec%% *}"); done
workloads=(create-storm stat-zipf mixed-pvfs-open)
sim_metrics=(sim_ops_per_s read_p50_us read_p99_us write_p50_us write_p99_us
  ok_frac)

build() {  # source dir, build dir
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
    cmake --build "$2" -j"$jobs" --target "${targets[@]}"; } \
    >"$2.log" 2>&1; then
    cat "$2.log" >&2
    echo "sim identity: building $1 failed" >&2
    exit 2
  fi
}

build_dufsbench() {  # source dir, build dir
  if ! { cmake -S "$1/dufsbench" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
    cmake --build "$2" -j"$jobs" --target dufsbench; } >"$2.log" 2>&1; then
    cat "$2.log" >&2
    echo "sim identity: building $1/dufsbench failed" >&2
    exit 2
  fi
}

run_dufsbench() {  # build dir, output dir
  mkdir -p "$2"
  for workload in "${workloads[@]}"; do
    # The last stdout line is the result JSON; keep its simulated metrics.
    "$1/dufsbench" --workload="$workload" --seed=1 --seconds=1 --trace=0 |
      tail -n 1 |
      python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
for name in sys.argv[1:]:
    print(name, repr(metrics[name]["value"]))
' "${sim_metrics[@]}" >"$2/dufsbench.$workload.sim.txt"
  done
}

run_benches() {  # build dir, output dir
  mkdir -p "$2"
  for spec in "${benches[@]}"; do
    local name=${spec%% *}
    local flags=()
    read -r -a flags <<<"${spec#"$name"}"
    # Same relative output paths in both runs: stdout names them.
    (cd "$2" && "$1/bench/$name" "${flags[@]}" \
      --baseline="$name.baseline.json" \
      --metrics-json="$name.metrics.json" >"$name.stdout")
  done
}

git -C "$root" worktree add --detach "$work/base-src" "$base_ref" >/dev/null
echo "building $base_ref and the working tree"
build "$work/base-src" "$work/base-build"
build "$root" "$work/head-build"
build_dufsbench "$work/base-src" "$work/base-dufsbench"
build_dufsbench "$root" "$work/head-dufsbench"
echo "running ${targets[*]} and dufsbench ${workloads[*]}"
run_benches "$work/base-build" "$work/base-out"
run_benches "$work/head-build" "$work/head-out"
run_dufsbench "$work/base-dufsbench" "$work/base-out"
run_dufsbench "$work/head-dufsbench" "$work/head-out"

outputs=()
for spec in "${benches[@]}"; do
  name=${spec%% *}
  outputs+=("$name.stdout" "$name.baseline.json" "$name.metrics.json")
done
for workload in "${workloads[@]}"; do
  outputs+=("dufsbench.$workload.sim.txt")
done

differ=0
for file in "${outputs[@]}"; do
  if [[ ! -e $work/base-out/$file && ! -e $work/head-out/$file ]]; then
    echo "not written by either: $file"
  elif cmp -s "$work/base-out/$file" "$work/head-out/$file"; then
    echo "identical: $file"
  else
    echo "DIFFERS:   $file"
    differ=1
  fi
done

if [[ $differ -eq 0 ]]; then
  echo "sim identity: every output is byte-identical to $base_ref"
  exit 0
fi
# `git diff` skips untracked files, so a new baseline not yet added counts
# only through `git status`.
if git -C "$root" diff --quiet "$base_ref" -- bench/baselines &&
  [[ -z $(git -C "$root" status --porcelain -- bench/baselines) ]]; then
  echo "sim identity: outputs differ from $base_ref but bench/baselines/" \
    "is unchanged" >&2
  exit 1
fi
echo "sim identity: outputs differ from $base_ref; bench/baselines/ was" \
  "regenerated with the change"
