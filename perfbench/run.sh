#!/usr/bin/env bash
# Build the benchmark harness from source, then run it with the given
# arguments (see perfbench/README.md). Build output goes to stderr so the
# harness's last stdout line stays its JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/perfbench" "$@"
