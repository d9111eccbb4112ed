#!/usr/bin/env bash
# Builds the benchmark (offline, its own workspace) and runs it.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command gets)
#   run.sh [--seed N] [--seconds S]                         all four workloads end to end, then traced
#   run.sh --smoke                                          all four at 2 s each, with the correctness epilogue
#   run.sh aa [--runs R] [--seed N] [--seconds S]           two sets of runs of this commit, compared (aa.py)
#   run.sh check                                            fmt --check, clippy -D warnings, tests
#
# Runs from the root of the checkout, whatever the caller's directory was, and
# reads and writes only inside it (benchmark/out, and the cargo target directory).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

manifest=benchmark/Cargo.toml
bin_dir="${CARGO_TARGET_DIR:-benchmark/target}/release"
if [ -z "${ZAB_BENCH_COMMIT:-}" ]; then
    ZAB_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
    if [ "$ZAB_BENCH_COMMIT" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
        ZAB_BENCH_COMMIT="$ZAB_BENCH_COMMIT+uncommitted"
    fi
fi
export ZAB_BENCH_COMMIT

build() {
    cargo build --release --offline --manifest-path "$manifest" >&2
}

workloads=(sat-kv-128-mem sat-1k-file steady-1k-n5 failover-1k)

case "${1:-}" in
check)
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --manifest-path "$manifest"
    exit
    ;;
aa)
    shift
    build
    exec python3 benchmark/aa.py "$@"
    ;;
--smoke)
    build
    for w in "${workloads[@]}"; do
        "$bin_dir/zab-benchmark" --workload "$w" --seconds 2 --warmup 0.5 --setups 1
    done
    exit
    ;;
esac

# One run if a workload is named, else the full set. Arguments pass through.
trace=0 seed=1 seconds=
workload=
args=("$@")
while [ $# -gt 0 ]; do
    case "$1" in
    --workload) workload="${2:-}" ;;
    --trace) trace="${2:-}" ;;
    --seed) seed="${2:-}" ;;
    --seconds) seconds="${2:-}" ;;
    esac
    shift $(($# > 1 ? 2 : 1))
done
build
if [ -n "$workload" ]; then
    if [ "$trace" = 1 ]; then
        exec "$bin_dir/zab-benchmark-layers" "${args[@]}"
    fi
    exec "$bin_dir/zab-benchmark" "${args[@]}"
fi
for w in "${workloads[@]}"; do
    "$bin_dir/zab-benchmark" --workload "$w" --seed "$seed" ${seconds:+--seconds "$seconds"}
done
for w in "${workloads[@]}"; do
    "$bin_dir/zab-benchmark-layers" --workload "$w" --seed "$seed" --trace 1 --seconds 10
done
