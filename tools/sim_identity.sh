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
# Every bench below writes a --baseline that is checked in under
# bench/baselines/; fig07 and fig08 put every table cell in theirs, so any
# figure number that moves also moves a baseline metric.
#
# Exit status: 1 when an output differs and bench/baselines/ is the same as
# at BASE_REF (a change that means to move simulated results regenerates
# the checked-in baselines with it); 0 otherwise. Every differing file is
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

# name, then its flags. fig10 and fig13 run at the flags CI gates them
# with; fig07 and fig08 run their default sweeps (a bench exits 1 on a
# flag it does not read).
benches=(
  "fig07_zk_throughput"
  "fig08_zk_servers"
  "fig10_native_compare --procs=16,64 --items=5"
  "fig13_deep_tree"
  "ablation_fastpath"
)
targets=()
for spec in "${benches[@]}"; do targets+=("${spec%% *}"); done

build() {  # source dir, build dir
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
    cmake --build "$2" -j"$jobs" --target "${targets[@]}"; } \
    >"$2.log" 2>&1; then
    cat "$2.log" >&2
    echo "sim identity: building $1 failed" >&2
    exit 2
  fi
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
echo "running ${targets[*]}"
run_benches "$work/base-build" "$work/base-out"
run_benches "$work/head-build" "$work/head-out"

differ=0
for spec in "${benches[@]}"; do
  name=${spec%% *}
  for file in "$name.stdout" "$name.baseline.json" "$name.metrics.json"; do
    if [[ ! -e $work/base-out/$file && ! -e $work/head-out/$file ]]; then
      echo "not written by either: $file"
    elif cmp -s "$work/base-out/$file" "$work/head-out/$file"; then
      echo "identical: $file"
    else
      echo "DIFFERS:   $file"
      differ=1
    fi
  done
done

if [[ $differ -eq 0 ]]; then
  echo "sim identity: every output is byte-identical to $base_ref"
  exit 0
fi
if git -C "$root" diff --quiet "$base_ref" -- bench/baselines; then
  echo "sim identity: outputs differ from $base_ref but bench/baselines/" \
    "is unchanged" >&2
  exit 1
fi
echo "sim identity: outputs differ from $base_ref; bench/baselines/ was" \
  "regenerated with the change"
