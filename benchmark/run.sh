#!/usr/bin/env bash
# Build the benchmark driver and the sectopk-s2d daemon it spawns, then run the driver
# with the arguments given (see benchmark/README.md).  Run from the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

# The daemon is a binary of a dependency, built under this package's release profile.
# Cargo's messages go to stderr; stdout stays the driver's.
cargo build --release --locked --offline --quiet --manifest-path "$manifest" \
  -p sectopk-server --bin sectopk-s2d >&2
exec cargo run --release --locked --offline --quiet --manifest-path "$manifest" -- "$@"
