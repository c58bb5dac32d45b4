#!/usr/bin/env bash
# Tier-1 verification for the ARO-PUF reproduction workspace.
#
# Runs the release build, the full test suite, and clippy with warnings
# denied. The workspace has no network dependencies (rand / proptest /
# criterion resolve to vendored path crates), so everything is forced
# offline to fail fast if a registry dependency ever sneaks back in.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark package (benchmark/, its own workspace) calls into the
# crates' public API; its tests fail when a crate change breaks a call.
echo "==> cargo test (benchmark package)"
cargo test --offline --manifest-path benchmark/Cargo.toml

# Bench smoke: run each microbenchmark once (the vendored criterion runs a
# single iteration when invoked without `--bench`), proving the bench
# harness still compiles and executes. End-to-end timing and its verdict
# come from the aro-perf benchmark: `aro-perf run` captures, `aro-perf
# compare` judges (benchmark/README.md).
echo "==> bench smoke (one iteration per microbenchmark)"
cargo test -q -p aro-bench --benches

# Chaos smoke: the quick reproduction must survive an injected-fault run.
# Exit 0 (all experiments completed under faults) and exit 3 (degraded
# mode: survivors reported plus a failure table) are both acceptable;
# anything else — a panic escaping the harness, a total failure — fails
# verification. See docs/ROBUSTNESS.md.
echo "==> chaos smoke (repro --quick --faults smoke)"
set +e
./target/release/repro --quick --quiet --faults smoke
chaos=$?
set -e
if [[ "$chaos" -ne 0 && "$chaos" -ne 3 ]]; then
    echo "verify: chaos smoke exited $chaos (expected 0 or 3)" >&2
    exit 1
fi
echo "chaos smoke exit: $chaos"

# Lifecycle smoke: the self-healing refresh experiment must complete (or
# degrade honestly) under a quarter-rate storm — the configuration its
# headline claim is quoted at. See docs/ROBUSTNESS.md ("Self-healing key
# lifecycle").
echo "==> lifecycle smoke (repro --quick --faults storm@0.25 exp16)"
set +e
./target/release/repro --quick --quiet --faults storm@0.25 exp16
lifecycle=$?
set -e
if [[ "$lifecycle" -ne 0 && "$lifecycle" -ne 3 ]]; then
    echo "verify: lifecycle smoke exited $lifecycle (expected 0 or 3)" >&2
    exit 1
fi
echo "lifecycle smoke exit: $lifecycle"

# Ledger smoke: the checkpoint/resume contract, end to end on the real
# binary. Run two experiments with a fresh ledger but "interrupt" after
# the first (by only asking for it), resume the same ledger for both, and
# require the concatenated stdout to be byte-identical to one
# uninterrupted run. See docs/OBSERVABILITY.md ("Run ledger & resume").
echo "==> ledger smoke (interrupt, resume, byte-compare)"
ledger_dir="$(mktemp -d /tmp/aro-verify-ledger.XXXXXX)"
trap 'rm -rf "$ledger_dir"' EXIT
./target/release/repro --quick exp1 exp3 > "$ledger_dir/fresh.md"
./target/release/repro --quick exp1 --ledger "$ledger_dir/run.ledger" > /dev/null
./target/release/repro --quick exp1 exp3 --resume "$ledger_dir/run.ledger" \
    > "$ledger_dir/resumed.md"
if ! cmp -s "$ledger_dir/fresh.md" "$ledger_dir/resumed.md"; then
    echo "verify: resumed stdout differs from an uninterrupted run" >&2
    diff "$ledger_dir/fresh.md" "$ledger_dir/resumed.md" | head -20 >&2
    exit 1
fi
grep -c '"event":"experiment"' "$ledger_dir/run.ledger" | {
    read -r n
    if [[ "$n" -ne 2 ]]; then
        echo "verify: expected 2 experiment records (exp1 + fresh exp3), got $n" >&2
        exit 1
    fi
}
echo "ledger smoke: resumed run byte-identical to fresh run"

echo "==> verify OK"
