#!/usr/bin/env bash
# One command for the host-clock benchmark.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#
# Builds benchmark/ (its own Cargo workspace) in release mode, offline, then
# runs each requested workload in its own process on one thread. Without
# --workload all four run in turn. Every metric is printed by name with its
# unit; the last line of each workload's output is one JSON object. Results
# and trace files land in benchmark/out/. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=(fleet_steady fleet_rolling_audit mesh_rolling single_recovery)
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("${2:?--workload needs a value}"); shift 2 ;;
        --seed | --seconds | --trace) pass+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
        *) echo "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]" >&2; exit 2 ;;
    esac
done

# Build output goes where CARGO_TARGET_DIR says (the benchmark driver sets
# it), else to benchmark/target. Cargo's own chatter goes to stderr.
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2

# glibc malloc adapts its mmap and trim thresholds to the sizes a process
# has freed, which makes the cost of a boot or an export depend on what ran
# before it in the process (README, "Allocator"). Naming the 128 KiB
# default explicitly switches the adaptation off, so every rep allocates
# the way a fresh process does.
export MALLOC_MMAP_THRESHOLD_=131072

for w in "${workloads[@]}"; do
    "$target/release/hostbench" --workload "$w" --out benchmark/out "${pass[@]}"
done
