#!/usr/bin/env bash
# Build av-serve and the benchmark client from source, then run one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload tag_small --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); scratch
# state goes to .bench_work and is removed when the run ends.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release -q --bin av-serve >&2
cargo build --offline --release -q --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server "$CARGO_TARGET_DIR/release/av-serve" \
    --work .bench_work "$@"
