#!/usr/bin/env bash
# Builds `wodex` and the benchmark from this checkout, then runs one
# workload:  bash e2ebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); data and reports go to .e2ebench/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin wodex >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/wodex-e2ebench" --wodex "$CARGO_TARGET_DIR/release/wodex" "$@"
