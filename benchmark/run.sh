#!/usr/bin/env bash
# The ompvar benchmark: builds the release CLI and the benchmark driver
# from source, then runs the driver with the given arguments.
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Build outputs go to CARGO_TARGET_DIR when the caller sets it (made
# absolute: it is relative to the caller's directory, and both builds
# must share it), else to benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p ompvar-harness --bin ompvar-repro
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

exec "$target/release/ompvar-benchmark" \
  --cli "$target/release/ompvar-repro" --out-dir "$here/out" "$@"
