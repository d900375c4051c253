#!/usr/bin/env bash
# Build the end-to-end benchmark and run it, from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed N --seconds S --trace 0|1
#
# Cargo's output goes to stderr, so the benchmark's JSON result stays the
# last line of stdout. CARGO_TARGET_DIR, when set, is the build directory.
set -euo pipefail

# The release profile of the benchmark's package must be the repository's.
release_profile() {
    awk '/^\[/ { on = ($0 == "[profile.release]"); next } on && NF' "$1"
}
if [ ! -f Cargo.toml ]; then
    echo "run.sh: no Cargo.toml here; run from the root of a checkout" >&2
    exit 1
fi
if [ "$(release_profile Cargo.toml)" != "$(release_profile perfbench/Cargo.toml)" ]; then
    echo "run.sh: [profile.release] of perfbench/Cargo.toml differs from the root's" >&2
    exit 1
fi

target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" "$@"
