#!/usr/bin/env bash
# Builds the daemon under test and the benchmark from source, then runs
# the benchmark with the arguments given (see benchmark/README.md):
#
#   benchmark/run.sh --workload commu-update --seed 42 --seconds 10 --trace 0
#   benchmark/run.sh                  # every workload, untraced then traced
#   benchmark/run.sh compare benchmark/baseline/a benchmark/baseline/b
#
# Both builds land in CARGO_TARGET_DIR (default: target/ at the root).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin esrd
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
if [ "${1:-}" = compare ]; then
    exec "$target/release/esrbench" "$@"
fi
exec "$target/release/esrbench" "$@" --esrd "$target/release/esrd"
