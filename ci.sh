#!/usr/bin/env bash
# The full local CI gate: formatting, lints, release build, tests, docs,
# and (with --quick) a bench smoke run that writes BENCH_SMOKE.json.
# Usage: ./ci.sh [--quick] [--miri]
#   --quick   additionally run every benchmark for one calibrated ~2 ms
#             batch (SPRING_BENCH_SMOKE=1) and assemble the results into
#             BENCH_SMOKE.json — "do the benches still run?", not a
#             performance measurement.
#   --miri    additionally run the kernel + snapshot tests under Miri
#             (needs a nightly toolchain with the miri component; the
#             stage is skipped with a warning when none is installed,
#             since the hosted `miri` CI job always runs it).
set -euo pipefail
cd "$(dirname "$0")"

quick=0
miri=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    --miri) miri=1 ;;
    *) echo "unknown flag: $arg (usage: ./ci.sh [--quick] [--miri])" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (simd + failpoints features)"
cargo clippy --workspace --all-targets \
  --features spring/simd,spring-testkit/simd,spring-testkit/failpoints,spring-cli/failpoints \
  -- -D warnings

echo "==> cargo clippy (spring-monitor without the reactor/trace features)"
# Built standalone the crate drops its only unsafe module and must stay
# warning-free under forbid(unsafe_code); the workspace build above
# always unifies `reactor` (via spring-cli) and `trace` (via
# spring-bench) in, so this is the one place the reactor-less,
# stub-recorder configuration is checked.
cargo clippy -p spring-monitor --all-targets -- -D warnings

echo "==> cargo clippy (trace feature matrix: flight recorder on and off)"
# With: cli + monitor build the real lock-free rings behind --trace /
# --trace-dir. Without: spring-cli standalone keeps the inert stub (the
# workspace row unifies `trace` in via spring-bench, so the stub only
# compiles in `-p` rows).
cargo clippy -p spring-monitor -p spring-cli --all-targets \
  --features spring-monitor/trace,spring-cli/trace,spring-cli/failpoints \
  -- -D warnings
cargo clippy -p spring-cli --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test (perfbench: the repository benchmark's own tests)"
# perfbench is a workspace of its own, so `cargo test --workspace` never
# reaches it; its oracle test checks a live serve_listener transcript,
# including the order in which served matches are written.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "==> cargo test (simd feature: explicit SIMD kernel paths)"
cargo test -q -p spring-core -p spring-testkit --features simd

echo "==> cargo test (spring-monitor without the reactor/trace features)"
cargo test -q -p spring-monitor

echo "==> cargo test (failpoints + trace: fault injection and postmortems)"
# `trace` rides along so the worker-loss postmortem acceptance test
# (crates/monitor/tests/postmortem.rs) and the traced serve conformance
# row run with the real recorder.
cargo test -q -p spring-testkit -p spring-monitor -p spring-cli \
  --features spring-testkit/failpoints,spring-cli/failpoints,spring-monitor/trace,spring-cli/trace

echo "==> differential fuzz (every variant x bare/engine/runner)"
# CI sets SPRING_FUZZ_SEED to a varying value (e.g. the run id) so the
# hosted gate explores new scenarios on every run; locally the fixed
# fallback keeps the gate deterministic. Failures print a replay line.
fuzz_seed="${SPRING_FUZZ_SEED:-1592642302}"   # 0x5EED_CAFE, the default seed
cargo run --release -q -p spring-cli -- fuzz --seed "$fuzz_seed" --iters 500

echo "==> hot-swap differential fuzz (sharded swap vs prefix/suffix oracle)"
cargo run --release -q -p spring-cli -- fuzz --swap --seed "$fuzz_seed" --iters 100

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if [ "$miri" -eq 1 ]; then
  echo "==> miri (kernel + snapshot tests, simd feature)"
  # Pinned seed so local runs match the hosted job's default layout
  # randomization; the hosted job also varies it across runs.
  if rustup run nightly cargo miri --version >/dev/null 2>&1; then
    MIRIFLAGS="${MIRIFLAGS:--Zmiri-seed=2007}" \
      rustup run nightly cargo miri test -p spring-core --features simd \
        --lib -- kernel snapshot
    # The reactor feature carries spring-monitor's only unsafe code (the
    # raw syscall shims); socket-driving tests are `#[cfg_attr(miri,
    # ignore)]`, so this interprets the pure reactor logic and keeps the
    # unsafe module inside Miri's build graph.
    MIRIFLAGS="${MIRIFLAGS:--Zmiri-seed=2007}" \
      rustup run nightly cargo miri test -p spring-monitor --features reactor \
        --lib -- reactor
    # The trace rings are lock-free (seqlock-style slots, atomic
    # tickets); Miri checks the concurrent-writer test for data races
    # and torn reads at reduced iteration counts.
    MIRIFLAGS="${MIRIFLAGS:--Zmiri-seed=2007}" \
      rustup run nightly cargo miri test -p spring-monitor --features trace \
        --lib -- trace
  else
    echo "WARN: miri unavailable (install with:" \
         "rustup toolchain install nightly --component miri); skipping" >&2
  fi
fi

if [ "$quick" -eq 1 ]; then
  echo "==> bench smoke (one calibrated iteration per benchmark)"
  jsonl="$(mktemp)"
  trap 'rm -f "$jsonl"' EXIT
  # The bench list is derived from the crate itself so a new benchmark
  # can't silently miss the smoke gate.
  for src in crates/bench/benches/*.rs; do
    b="$(basename "$src" .rs)"
    echo "--> cargo bench --bench $b (smoke)"
    before="$(wc -l < "$jsonl" 2>/dev/null || echo 0)"
    SPRING_BENCH_SMOKE=1 SPRING_BENCH_JSON="$jsonl" \
      cargo bench -p spring-bench --bench "$b" --features simd --quiet
    after="$(wc -l < "$jsonl")"
    if [ "$after" -le "$before" ]; then
      echo "ERROR: bench $b emitted no JSON result line" \
           "(is it registered in crates/bench/Cargo.toml and reporting" \
           "through the smoke harness?)" >&2
      exit 1
    fi
  done
  # Regression tripwire: compare against the committed BENCH_SMOKE.json
  # baseline *before* overwriting it. Smoke timings are a single
  # calibrated batch on whatever machine this is, so locally the shared
  # comparison script runs warn-only — it flags "look at this", it does
  # not fail the gate. The hosted bench-compare job enforces the same
  # thresholds against the PR's merge-base for real.
  if [ -f BENCH_SMOKE.json ]; then
    scripts/bench_compare.sh --warn-only BENCH_SMOKE.json "$jsonl"
  fi
  # Assemble the JSON-lines file into a single JSON document.
  {
    printf '{\n  "mode": "smoke",\n  "results": [\n'
    awk 'NR>1 { printf ",\n" } { printf "    %s", $0 }' "$jsonl"
    printf '\n  ]\n}\n'
  } > BENCH_SMOKE.json
  count="$(wc -l < "$jsonl")"
  echo "wrote BENCH_SMOKE.json ($count results)"
fi

echo "CI gate passed."
