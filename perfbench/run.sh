#!/usr/bin/env bash
# Builds the benchmark from source (both binaries) and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload diurnal-256 --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest --seed 1
# Build output goes to $CARGO_TARGET_DIR (default perfbench/target).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
PERFBENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT
exec "$target/release/perfbench" "$@"
