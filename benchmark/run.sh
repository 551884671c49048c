#!/usr/bin/env bash
# Runs tivbench (README.md). Builds build-bench/ from source on first use.
#
#   bash benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       One run. Prints tivbench's report line and, last, the result line
#       {"correct","attempted","failed","metrics"}: end-to-end metrics with
#       --trace 0, per-layer metrics with --trace 1 (Chrome trace written
#       to build-bench/trace/).
#   bash benchmark/run.sh --sets K --out DIR [--seed S] [--seconds T]
#       K sets of all four workloads, seeds S, S+1, ..., the workload order
#       reversed every other set; one file per run, DIR/<workload>-s<seed>.json.
#       benchmark/compare.py reads such directories.
#   bash benchmark/run.sh --smoke
#       Every workload at n=128 for 10 epochs, traced and untraced; each
#       result is validated against BENCHMARK.json. A few seconds.
set -euo pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
BUILD=$ROOT/build-bench
WORKLOADS=(ooc-steady ooc-burst probe-inmem analyze-batch)

usage() {
  sed -n '2,16p' "${BASH_SOURCE[0]}" >&2
  exit 2
}

build() {
  if [[ ! -f $ROOT/CMakeLists.txt || ! -d $ROOT/src ]]; then
    echo "run.sh: the product sources (CMakeLists.txt, src/) are missing" >&2
    exit 2
  fi
  if [[ ! -f $BUILD/CMakeCache.txt ]]; then
    cmake -S "$ROOT/benchmark" -B "$BUILD" >&2
  fi
  cmake --build "$BUILD" --target tivbench -j "$(nproc)" >&2
}

# run_one WORKLOAD SEED SECONDS TRACE [tivbench flags...]
run_one() {
  local scratch=$BUILD/scratch
  rm -rf "$scratch"
  mkdir -p "$scratch"
  local args=(--workload="$1" --seed="$2" --seconds="$3" --dir="$scratch")
  if [[ $4 == 1 ]]; then args+=(--trace="$BUILD/trace"); fi
  "$BUILD/tivbench" "${args[@]}" "${@:5}"
}

workload="" seed=1 seconds=10 trace=0 sets="" out="" smoke=0
while [[ $# -gt 0 ]]; do
  case $1 in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --sets) sets=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) usage ;;
  esac
done
[[ $trace == 0 || $trace == 1 ]] || usage

if [[ $smoke == 1 ]]; then
  build
  dir=$BUILD/smoke
  rm -rf "$dir"
  mkdir -p "$dir"
  for w in "${WORKLOADS[@]}"; do
    for t in 0 1; do
      run_one "$w" 1 0 "$t" --smoke > "$dir/$w-t$t.json"
    done
  done
  python3 "$ROOT/benchmark/compare.py" --check "$dir"/*.json
elif [[ -n $sets ]]; then
  [[ -n $out ]] || usage
  build
  mkdir -p "$out"
  for ((k = 0; k < sets; k++)); do
    order=("${WORKLOADS[@]}")
    if ((k % 2 == 1)); then
      order=()
      for ((i = ${#WORKLOADS[@]} - 1; i >= 0; i--)); do order+=("${WORKLOADS[i]}"); done
    fi
    s=$((seed + k))
    for w in "${order[@]}"; do
      run_one "$w" "$s" "$seconds" 0 > "$out/$w-s$s.json"
      echo "run.sh: $w seed $s done" >&2
    done
  done
else
  [[ -n $workload ]] || usage
  build
  run_one "$workload" "$seed" "$seconds" "$trace"
fi
