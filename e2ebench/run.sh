#!/usr/bin/env bash
# Build the shipped dp-server release binary and the benchmark program
# from source, then run the benchmark. Run from the repository root:
#
#   bash e2ebench/run.sh --workload online_point --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
# Fails (non-zero, no result) when the sources are absent.
set -euo pipefail

# The engine's tuning knobs must not leak into the build or any process.
unset DP_THREADS DP_TILE DP_KERNEL

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p dp-server --bin dp-server >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2

exec "$target/release/e2ebench" --server-bin "$target/release/dp-server" "$@"
