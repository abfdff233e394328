#!/usr/bin/env bash
# Builds the shipped server binary and the benchmark from source, then
# runs the benchmark. Run from the repository root:
#
#   bash invbench/run.sh --workload serve-5q-open --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's report and its one-line
# JSON result go to stdout. CARGO_TARGET_DIR (default .bench_build)
# holds both builds.
set -euo pipefail
root=$(pwd)
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$root/$CARGO_TARGET_DIR" ;;
esac
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p invmeas-cli --bin invmeas >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$target/release/invbench" --server-bin "$target/release/invmeas" "$@"
