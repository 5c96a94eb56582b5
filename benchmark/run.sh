#!/usr/bin/env bash
# The HYDRA benchmark: build the driver and hydra-shardd, then run.
#
#   benchmark/run.sh                         every workload, untraced + traced
#   benchmark/run.sh --smoke                 the same at a tenth of the size
#   benchmark/run.sh --repeat 2              twice on one seed; fail on disagreement
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one run; result JSON on the last line
#
# Builds go to $CARGO_TARGET_DIR when set, else to the repository's target/
# so the workspace's compiled crates are reused.
set -euo pipefail

BENCH_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$BENCH_DIR")"
cd "$ROOT"

TARGET="${CARGO_TARGET_DIR:-$ROOT/target}"
case "$TARGET" in
    /*) ;;
    *) TARGET="$ROOT/$TARGET" ;;
esac
export CARGO_TARGET_DIR="$TARGET"

# Build output goes to stderr: stdout carries only the benchmark's results.
cargo build --release --offline --quiet \
    --manifest-path "$BENCH_DIR/Cargo.toml" >&2
cargo build --release --offline --quiet \
    --manifest-path "$ROOT/Cargo.toml" -p hydra-net --bin hydra-shardd >&2

exec "$TARGET/release/hydra-benchmark" "$@"
