#!/usr/bin/env bash
# Tier-1 verification for the ARO-PUF reproduction workspace.
#
# Runs the rustfmt check, the release build, the full test suite,
# clippy and the doc-link check with warnings denied, the benchmark
# package's rustfmt check, clippy and tests, and one pass of its
# workloads. Every gate is a cargo command: the end-to-end smokes of the
# `repro` binary (chaos, key lifecycle, ledger resume) are tests in
# crates/bench/tests/repro_cli.rs, which `cargo test --workspace` runs.
# The workspace has no network dependencies (rand / proptest /
# criterion resolve to vendored path crates), so everything is forced
# offline to fail fast if a registry dependency ever sneaks back in.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Doc links: a deleted or renamed item must not leave a dangling
# intra-doc link, and public docs must not link private items.
echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The benchmark package (benchmark/, its own workspace) calls into the
# crates' public API; its tests fail when a crate change breaks a call.
# It is formatted and linted like the workspace.
echo "==> cargo fmt --check (benchmark package)"
cargo fmt --manifest-path benchmark/Cargo.toml -- --check

echo "==> cargo clippy (benchmark package, warnings denied)"
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "==> cargo test (benchmark package)"
cargo test --offline --manifest-path benchmark/Cargo.toml

# Benchmark smoke: every workload once through its own output checks.
# `aro-perf run` exits 1 when a rep cannot be set up or an output check
# fails (an impostor accepted, a rep's tallies digest differing from rep
# 0's); `--trace 1` adds the second rep the digest check compares.
echo "==> aro-perf run (every workload, output checks)"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --seconds 1 --trace 1

# The serve workloads again at two more seeds. The seed draws the service
# streams (and, for `serve-heal`, the fault schedule), so each seed
# retries, damages, ages and heals the fleet differently, under the same
# output checks.
for workload in serve-steady serve-heal; do
  for seed in 7 31; do
    echo "==> aro-perf run --workload $workload --seed $seed"
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
      run --workload "$workload" --seed "$seed" --seconds 1 --trace 1
  done
done

# Bench smoke: run each microbenchmark once (the vendored criterion runs a
# single iteration when invoked without `--bench`), proving the bench
# harness still compiles and executes. End-to-end timing and its verdict
# come from the aro-perf benchmark: `aro-perf run` captures, `aro-perf
# compare` judges (benchmark/README.md).
echo "==> bench smoke (one iteration per microbenchmark)"
cargo test -q -p aro-bench --benches

echo "==> verify OK"
