#!/usr/bin/env bash
# Builds the `spring` server and the benchmark from source, then runs
#   perfbench --workload <ingest|fleet|alerts> --seed N --seconds S --trace <0|1>
# from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); results, queries and span files to its
# `perfbench/` subdirectory.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# The one pinned server build. `-p spring-cli` resolves spring-monitor's
# features from spring-cli alone (`reactor`); a `--workspace` build would
# also unify in `trace` through spring-bench: same source, another binary.
SERVER_BUILD=(cargo build --release --quiet -p spring-cli --bin spring)
SERVER_FEATURES="reactor"

"${SERVER_BUILD[@]}" >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2

if commit=$(git rev-parse HEAD 2>/dev/null); then
  :
else
  # Not a git checkout: identify the source tree by content instead.
  commit="tree-$(find Cargo.toml Cargo.lock crates -type f -print0 | sort -z |
    xargs -0 sha256sum | sha256sum | cut -c1-16)"
fi

PERFBENCH_BUILD="${SERVER_BUILD[*]}" \
PERFBENCH_FEATURES="$SERVER_FEATURES" \
PERFBENCH_RUSTC="$(rustc --version)" \
PERFBENCH_COMMIT="$commit" \
  exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server "$CARGO_TARGET_DIR/release/spring" \
    --out "$CARGO_TARGET_DIR/perfbench" \
    "$@"
