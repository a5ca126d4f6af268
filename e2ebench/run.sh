#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default .bench_build); its output goes to standard error so standard
# output carries only the benchmark's info and result lines.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/chef-e2ebench" "$@"
